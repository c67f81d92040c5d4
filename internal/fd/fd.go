// Package fd implements a TANE-style levelwise miner for functional
// dependencies and unique column combinations.
//
// FDs and UCCs are the dependency classes the paper positions Maimon
// against (Sec. 1): their discovery is well studied, they are special
// cases of MVDs (an exact FD X→A implies the MVD X ↠ A | rest), but
// mining all of them is insufficient for acyclic-schema discovery. The
// package serves three roles in the reproduction: the related-work
// baseline, a cross-check for the MVD miner (every exact FD must surface
// as an exact MVD), and a consumer of the same PLI/entropy substrate,
// demonstrating the substrate is reusable exactly as the paper's PLI
// cache is across TANE/pyro-style systems.
//
// The miner finds exact FDs and UCCs only. An FD's error is the g3
// fraction of rows that must be removed for it to hold (Kivinen–Mannila,
// the measure TANE and Pyro threshold); X→A holds when it is 0.
package fd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/pli"
	"repro/internal/relation"
)

// FD is a functional dependency LHS → RHS (single right-hand attribute;
// multi-attribute right sides decompose).
type FD struct {
	LHS bitset.AttrSet
	RHS int
}

// Format renders the FD with attribute names.
func (f FD) Format(names []string) string {
	rhs := fmt.Sprintf("#%d", f.RHS)
	if f.RHS < len(names) {
		rhs = names[f.RHS]
	}
	return f.LHS.Format(names) + " -> " + rhs
}

// String renders the FD in letter notation.
func (f FD) String() string {
	return f.LHS.String() + "->" + bitset.Single(f.RHS).String()
}

// Result holds the minimal FDs and minimal UCCs found.
type Result struct {
	FDs  []FD
	UCCs []bitset.AttrSet
}

// Miner mines exact FDs and UCCs over one relation. The g3 measure and
// the UCC check both read partitions from one PLI cache, so each
// partition is built once.
type Miner struct {
	rel   *relation.Relation
	cache *pli.Cache
}

// NewMiner builds an FD miner.
func NewMiner(r *relation.Relation) *Miner {
	return &Miner{rel: r, cache: pli.NewCache(r, pli.DefaultConfig())}
}

// Error returns g3(lhs → rhs), the minimum fraction of tuples to delete so
// that the FD holds exactly: per cluster of π*(lhs), all but the rows of
// the plurality rhs value must go. (Rows in stripped lhs classes violate
// nothing.)
func (m *Miner) Error(lhs bitset.AttrSet, rhs int) float64 {
	n := m.rel.NumRows()
	if n == 0 {
		return 0
	}
	col := m.rel.Column(rhs)
	counts := make([]int, m.rel.DomainSize(rhs))
	removals := 0
	p := m.cache.Get(lhs)
	for ci := 0; ci < p.NumClusters(); ci++ {
		cluster := p.Cluster(ci)
		best := 0
		for _, tid := range cluster {
			counts[col[tid]]++
			best = max(best, counts[col[tid]])
		}
		for _, tid := range cluster {
			counts[col[tid]] = 0
		}
		removals += len(cluster) - best
	}
	return float64(removals) / float64(n)
}

// IsUnique reports whether the attribute set is a UCC: no two rows agree
// on it, so its stripped partition has no cluster.
func (m *Miner) IsUnique(attrs bitset.AttrSet) bool {
	return m.cache.Get(attrs).NumClusters() == 0
}

// Mine runs the levelwise search and returns minimal FDs and UCCs.
func (m *Miner) Mine() *Result {
	n := m.rel.NumCols()
	res := &Result{}

	// foundFor[a] collects minimal LHSs for RHS a; used for minimality
	// pruning: any superset of a found LHS is non-minimal.
	foundFor := make([][]bitset.AttrSet, n)
	var foundUCC []bitset.AttrSet

	level := []bitset.AttrSet{bitset.Empty()}
	for size := 0; size < n; size++ {
		var next []bitset.AttrSet
		seen := map[bitset.AttrSet]bool{}
		for _, lhs := range level {
			// UCC check (skip the empty set: a 0-attribute key is only
			// possible for single-row relations, uninteresting).
			if !lhs.IsEmpty() && bitset.Minimal(lhs, foundUCC) && m.IsUnique(lhs) {
				foundUCC = append(foundUCC, lhs)
			}
			for a := 0; a < n; a++ {
				if lhs.Contains(a) {
					continue
				}
				if !bitset.Minimal(lhs, foundFor[a]) || contains(foundFor[a], lhs) {
					continue // a subset already determines a
				}
				if m.Error(lhs, a) == 0 {
					foundFor[a] = append(foundFor[a], lhs)
					res.FDs = append(res.FDs, FD{LHS: lhs, RHS: a})
				}
			}
			// Expand the lattice.
			if size < n-1 {
				for a := 0; a < n; a++ {
					if lhs.Contains(a) {
						continue
					}
					cand := lhs.Add(a)
					if !seen[cand] {
						seen[cand] = true
						// Prune candidates that are supersets of a UCC:
						// every FD with such a LHS is trivially non-minimal.
						if bitset.Minimal(cand, foundUCC) && !contains(foundUCC, cand) {
							next = append(next, cand)
						}
					}
				}
			}
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	sortFDs(res.FDs)
	bitset.SortSets(foundUCC)
	res.UCCs = foundUCC
	return res
}

func contains(sets []bitset.AttrSet, s bitset.AttrSet) bool {
	for _, x := range sets {
		if x == s {
			return true
		}
	}
	return false
}

func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].RHS != fds[j].RHS {
			return fds[i].RHS < fds[j].RHS
		}
		if li, lj := fds[i].LHS.Len(), fds[j].LHS.Len(); li != lj {
			return li < lj
		}
		return fds[i].LHS < fds[j].LHS
	})
}

// Summary renders a compact multi-line report, used by the fdbridge
// example and CLI output.
func (r *Result) Summary(names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d minimal FDs, %d minimal UCCs\n", len(r.FDs), len(r.UCCs))
	for _, f := range r.FDs {
		fmt.Fprintf(&b, "  FD  %s\n", f.Format(names))
	}
	for _, u := range r.UCCs {
		fmt.Fprintf(&b, "  UCC %s\n", u.Format(names))
	}
	return b.String()
}
