package core

import (
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/info"
	"repro/internal/mis"
	"repro/internal/mvd"
	"repro/internal/schema"
)

// Scheme is one acyclic schema produced by phase 2, with the measures the
// paper's evaluation reports. The MVDs it rests on are Tree.Support().
type Scheme struct {
	Schema schema.Schema
	Tree   *schema.JoinTree
	J      float64 // J(S) per Lee (Eq. 6), in bits
}

// M returns the number of relations in the scheme.
func (s *Scheme) M() int { return s.Schema.M() }

// EnumerateSchemes is ASMiner (Fig. 8): it builds the incompatibility
// graph over the given MVDs (Eq. 15), enumerates its maximal independent
// sets — the maximal pairwise-compatible subsets — and synthesizes one
// acyclic schema from each via BuildAcyclicSchema (Fig. 9). emit is called
// once per distinct schema, for at most limit schemes (limit <= 0: all);
// return false to stop early (the paper's run-for-30-minutes protocol).
// Schemes that fail join-tree construction (possible for approximate
// inputs whose compatible set is not tree-consistent) are skipped.
//
// Each scheme's J is read through one entropy view joined to the team of
// the miner's last phase 1, so under an entropy budget an entropy that
// phase counted is not counted again here, at any fan-out; without a
// phase 1 the view joins a team of its own.
//
// The error is nil, or the bound context's error when it stopped the
// enumeration; the schemes emitted before the stop are valid. A limit
// reached or an emit returning false is not a stop.
func (m *Miner) EnumerateSchemes(mvds []mvd.MVD, limit int, emit func(*Scheme) bool) error {
	defer m.tracePhase("schemes")()
	team := m.team
	if team == nil {
		team = m.oracle.Team(1)
	}
	loc := team.Local()
	defer loc.Release() // flushes the view's counters before the phase's snapshot
	ms := append([]mvd.MVD(nil), mvds...)
	mvd.Sort(ms)
	g := mis.NewGraph(len(ms))
	graphT0 := time.Now()
	graphStats := m.searchStats
	ok, edges := m.buildIncompatibilityGraph(g, ms)
	m.recordStage(&m.stages.graph, graphT0, graphStats, 1, int64(len(ms)))
	m.stages.graph.candidates += edges // incompatibility edges found (Eq. 15)
	if !ok {
		return m.cause // cancelled or past the deadline mid-build
	}
	m.emitProgress(Progress{Phase: "schemes", MVDs: len(ms), Candidates: m.searchStats.Visited})
	// Each set arrives ascending over the sorted ms, so q is already in
	// Fig. 9's order. A set is synthesized into the reused bags and told
	// apart by them: only a new scheme is copied out, gets a join tree
	// and a J.
	universe := bitset.Full(m.oracle.NumAttrs())
	var q []mvd.MVD
	var bags []bitset.AttrSet
	var seen firstSet[schema.Schema]
	streamed := 0
	g.EnumerateBK(func(set []int) bool {
		synthT0 := time.Now()
		synthStats := m.searchStats
		emitted := int64(0)
		defer func() {
			m.recordStage(&m.stages.synth, synthT0, synthStats, 1, emitted)
		}()
		if m.stopped() {
			return false
		}
		q = q[:0]
		for _, idx := range set {
			q = append(q, ms[idx])
		}
		bags = schema.Canonicalize(synthesize(bags, universe, q))
		if len(bags) == 0 {
			return true // no attributes: no schema
		}
		m.stages.synth.candidates++ // compatible sets that synthesized a schema
		h := hashSets(0, bags)
		if seen.has(h, schema.Schema{Relations: bags}) {
			return true
		}
		sch := schema.Schema{Relations: slices.Clone(bags)}
		seen.add(h, sch)
		tree, err := schema.BuildJoinTree(sch)
		if err != nil {
			return true // not acyclic: cannot happen per Thm. 7.4, but stay safe
		}
		streamed++
		emitted = 1
		m.emitProgress(Progress{
			Phase:      "schemes",
			MVDs:       len(ms),
			Candidates: m.searchStats.Visited,
			Schemes:    streamed,
		})
		return emit(&Scheme{Schema: sch, Tree: tree, J: info.JTree(loc, tree)}) &&
			(limit <= 0 || streamed < limit)
	})
	return m.cause
}

// buildIncompatibilityGraph fills the empty graph g with the edges of
// Eq. 15 over ms and reports whether the build completed and how many
// edges it added. The graph is quadratic in |Mε| (tens of thousands of
// MVDs on wide approximate inputs), so cancellation is polled once per
// row, not only once enumeration starts. Rows are written in place by
// up to Options.Workers goroutines (mis.Graph.FillUpper); each row is
// Def. 7.1 decided 64 columns at a time from the column planes
// (keyMasks), with Compatible run only on same-key pairs, so the edge
// set, and thus every enumerated scheme, is the same at every worker
// count.
func (m *Miner) buildIncompatibilityGraph(g *mis.Graph, ms []mvd.MVD) (bool, int64) {
	km := newKeyMasks(ms)
	edges, ok := g.FillUpper(m.opts.Workers, func() func(int, []uint64) bool {
		s := km.newKeyRow()
		return func(i int, row []uint64) bool {
			// Poll the stop flag without mutating shared miner state
			// (stopped() records the cause, once, after the join).
			if m.done.Load() {
				return false
			}
			km.incompatibleRow(s, ms, i, row)
			if m.afterGraphRow != nil {
				m.afterGraphRow(i)
			}
			return true
		}
	})
	if m.stopped() || !ok { // stopped() first: it records the stop cause
		return false, 0
	}
	return true, edges
}

// BuildAcyclicSchema is Fig. 9 over the universe: starting from the
// universal schema {Ω}, apply each MVD of q in ascending key-cardinality
// order, splitting the single relation that contains its key into the
// key-extended projections of its dependents. Redundant MVDs (that fail
// to split, line 7) are skipped. The result is acyclic and its join
// tree's support is contained in q (Thm. 7.4).
func BuildAcyclicSchema(universe bitset.AttrSet, q []mvd.MVD) (schema.Schema, error) {
	sorted := slices.Clone(q)
	mvd.Sort(sorted)
	return schema.New(synthesize(nil, universe, sorted))
}

// synthesize is Fig. 9's loop over q, which must be in mvd.Sort order.
// It writes the relations into bags[:0] and returns them, in split
// order, not canonicalized.
func synthesize(bags []bitset.AttrSet, universe bitset.AttrSet, q []mvd.MVD) []bitset.AttrSet {
	bags = append(bags[:0], universe)
	for _, phi := range q {
		// Find the relation containing the key (processing order makes it
		// unique for compatible sets; pick the first deterministically).
		target := slices.IndexFunc(bags, phi.Key.SubsetOf)
		if target < 0 {
			continue // key not embedded: the MVD cannot decompose anything
		}
		omega := bags[target]
		parts := 0
		for _, dep := range phi.Deps {
			if dep.Union(phi.Key).Intersect(omega) != phi.Key {
				parts++
			}
		}
		if parts < 2 {
			continue // redundant MVD (Fig. 9 line 7)
		}
		bags = slices.Delete(bags, target, target+1)
		for _, dep := range phi.Deps {
			if part := dep.Union(phi.Key).Intersect(omega); part != phi.Key {
				bags = append(bags, part)
			}
		}
	}
	return bags
}
