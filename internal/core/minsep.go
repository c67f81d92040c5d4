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
	return m.reduceMinSep(x, a, b, false)
}

// reduceMinSep is ReduceMinSep, testing each remainder through the pair's
// verdict table when tabled is set (see holds).
func (m *Miner) reduceMinSep(x bitset.AttrSet, a, b int, tabled bool) bitset.AttrSet {
	s := x
	for rest := x; rest != 0; rest &= rest - 1 {
		if cand := s &^ (rest & -rest); m.holds(cand, a, b, tabled) {
			s = cand
		}
	}
	return s
}

// holds is SeparatorHolds(sep, a, b), answered from the verdict table of
// the pair MineMinSeps is mining when tabled is set. The verdict is a pure
// function of (sep, a, b, ε), and a pair's transversal loop and its
// reductions test many separators more than once (28,975 of 77,259 tests
// on the bench's 13-column relation at ε = 0.1), so each is searched once
// per pair. Only MineMinSeps passes tabled: the exported entry points
// always search.
func (m *Miner) holds(sep bitset.AttrSet, a, b int, tabled bool) bool {
	if !tabled {
		return m.SeparatorHolds(sep, a, b)
	}
	v, ok := m.scratch.verdicts.get(sep)
	if !ok {
		v = m.SeparatorHolds(sep, a, b)
		m.scratch.verdicts.put(sep, v)
	}
	return v
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

// LastMinSepTrace returns the trace of the most recent MineMinSeps call.
func (m *Miner) LastMinSepTrace() MinSepTrace { return m.minsepTrace }

// MineMinSeps is Fig. 5: enumerate all minimal a,b-separators of the
// miner's relation at threshold ε. The enumeration alternates between
// reducing a found separator and generating minimal transversals of the
// separators found so far (Thm. 6.1): a new minimal separator exists iff
// some minimal transversal's complement (within Ω \ {a,b}) separates.
//
// The verdict table, the enumerator and the separator list are the
// miner's scratch, reused pair after pair: a warm call allocates only the
// slice it returns.
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
	s.verdicts.clear()
	// Line 3: the largest candidate key is Ω \ {a,b}; if even it does not
	// separate, no separator exists (Prop. 5.1 Eq. 8).
	if !info.LeqEps(m.src.MI(bitset.Single(a), bitset.Single(b), universe), m.opts.Epsilon) {
		return nil
	}
	first := m.reduceMinSep(universe, a, b, true)
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
		if !m.holds(cand, a, b, true) {
			m.minsepTrace.Wasted++
			wastedRun++
			if wastedRun > m.minsepTrace.MaxWastedRun {
				m.minsepTrace.MaxWastedRun = wastedRun
			}
			continue
		}
		wastedRun = 0
		x := m.reduceMinSep(cand, a, b, true)
		seps = append(seps, x)
		enum.AddEdge(x)
	}
	s.seps = seps
	out := slices.Clone(seps)
	bitset.SortSets(out)
	m.minsepTrace.Separators = len(out)
	return out
}
