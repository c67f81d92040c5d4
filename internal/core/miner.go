package core

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/mvd"
)

// Pair is an unordered attribute pair (A < B).
type Pair struct{ A, B int }

// MVDResult is the outcome of phase 1 (MVDMiner, Fig. 3).
type MVDResult struct {
	// MVDs is Mε (Eq. 11): the union over pairs and minimal separators of
	// the full ε-MVDs, deduplicated and in canonical order.
	MVDs []mvd.MVD
	// MinSeps maps each attribute pair to its minimal separators.
	MinSeps map[Pair][]bitset.AttrSet
}

// Separators returns the distinct minimal separators across all pairs, in
// canonical order.
func (r *MVDResult) Separators() []bitset.AttrSet {
	seen := make(map[bitset.AttrSet]bool)
	var out []bitset.AttrSet
	for _, seps := range r.MinSeps {
		for _, s := range seps {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	bitset.SortSets(out)
	return out
}

// NumMinSeps returns the total count of (pair, separator) entries, the
// quantity plotted in the paper's Figs. 14 and 18.
func (r *MVDResult) NumMinSeps() int {
	n := 0
	for _, seps := range r.MinSeps {
		n += len(seps)
	}
	return n
}

// MineMVDs is MVDMiner (Fig. 3): for every attribute pair, mine the
// minimal separators and then the full ε-MVDs for each separator; return
// their union Mε. MergePairs(MinePairMVDs(pairs)) is the same over a
// subset of the pairs.
//
// With Options.Workers > 1 the pairs are fanned out across a bounded
// worker pool and the outcomes merged back in canonical pair order; the
// result is identical to a serial run.
//
// The error is nil, or the bound context's error when it stopped the
// mine; the result then holds the pairs mined before the stop, which are
// valid.
func (m *Miner) MineMVDs() (*MVDResult, error) {
	return m.minePairs(allPairs(m.oracle.NumAttrs()), "mvds", true)
}

// MineMinSepsAll runs only the separator phase for every pair — the
// workload measured by the paper's scalability experiments (Sec. 8.3),
// which report that separator mining dominates total runtime. Like
// MineMVDs it fans the pairs out when Options.Workers > 1, and it
// reports a stop the same way.
func (m *Miner) MineMinSepsAll() (*MVDResult, error) {
	return m.minePairs(allPairs(m.oracle.NumAttrs()), "minseps", false)
}

// SortedPairs returns the result's pairs in lexicographic order (stable
// iteration for reports and tests).
func (r *MVDResult) SortedPairs() []Pair {
	out := make([]Pair, 0, len(r.MinSeps))
	for p := range r.MinSeps {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
