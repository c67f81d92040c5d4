package core

import (
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/info"
)

// ReduceMinSep is the greedy minimization of Fig. 4: starting from a known
// separator x of the pair (a,b), drop attributes in index order whenever
// the remainder still separates. The result is a minimal a,b-separator
// contained in x.
func (m *Miner) ReduceMinSep(x bitset.AttrSet, a, b int) bitset.AttrSet {
	s := x
	for rest := x; rest != 0; rest &= rest - 1 {
		if cand := s &^ (rest & -rest); m.SeparatorHolds(cand, a, b) {
			s = cand
		}
	}
	return s
}

// MinSepTrace instruments one MineMinSeps invocation. The paper bounds
// the number of minimal transversals processed between consecutive
// separator discoveries by the negative border: |BD⁻(C)| ≤ n·|C|
// (Thm. 12.2); MaxWastedRun lets tests check that bound empirically.
type MinSepTrace struct {
	Processed    int // minimal transversals pulled from the enumerator
	Wasted       int // transversals whose complement did not separate
	MaxWastedRun int // longest waste run between discoveries (or the end)
	Separators   int // minimal separators found
}

// LastMinSepTrace returns the trace of the most recent MineMinSeps call
// on m. A mine over many pairs calls MineMinSeps on its workers' views
// of m, not on m, so it leaves this trace as it was.
func (m *Miner) LastMinSepTrace() MinSepTrace { return m.minsepTrace }

// MineMinSeps is Fig. 5: enumerate all minimal a,b-separators of the
// miner's relation at threshold ε. The enumeration alternates between
// reducing a found separator and generating minimal transversals of the
// separators found so far (Thm. 6.1): a new minimal separator exists iff
// some minimal transversal's complement (within Ω \ {a,b}) separates.
//
// Each separator test is a SeparatorHolds, answered from the key memo: a
// bit of the key root's split table, or on a wider root a slot settled
// once for every pair in the same two root dependents — so a separator the
// transversal loop or a reduction re-tests is never searched again. The
// enumerator and the separator list are the miner's scratch, reused pair
// after pair: a warm call allocates only the slice it returns.
func (m *Miner) MineMinSeps(a, b int) []bitset.AttrSet {
	n := m.oracle.NumAttrs()
	universe := bitset.Full(n).Remove(a).Remove(b)
	m.minsepTrace = MinSepTrace{}
	t0 := time.Now()
	stats0 := m.searchStats
	defer func() {
		m.recordStage(&m.stages.minsep, t0, stats0, 1, int64(m.minsepTrace.Separators))
	}()

	s := &m.scratch
	// Line 3: the largest candidate key is Ω \ {a,b}; if even it does not
	// separate, no separator exists (Prop. 5.1 Eq. 8).
	if !info.LeqEps(m.src.MI(bitset.Single(a), bitset.Single(b), universe), m.opts.Epsilon) {
		return nil
	}
	first := m.ReduceMinSep(universe, a, b)
	seps := append(s.seps[:0], first)
	enum := &s.enum
	enum.Reset(universe)
	enum.AddEdge(first)

	wastedRun := 0
	for {
		if m.stopped() {
			break
		}
		d, ok := enum.Next()
		if !ok {
			break
		}
		m.minsepTrace.Processed++
		cand := universe.Diff(d)
		if !m.SeparatorHolds(cand, a, b) {
			m.minsepTrace.Wasted++
			wastedRun++
			if wastedRun > m.minsepTrace.MaxWastedRun {
				m.minsepTrace.MaxWastedRun = wastedRun
			}
			continue
		}
		wastedRun = 0
		x := m.ReduceMinSep(cand, a, b)
		seps = append(seps, x)
		enum.AddEdge(x)
	}
	s.seps = seps
	out := slices.Clone(seps)
	bitset.SortSets(out)
	m.minsepTrace.Separators = len(out)
	return out
}
