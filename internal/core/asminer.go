package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/info"
	"repro/internal/mis"
	"repro/internal/mvd"
	"repro/internal/schema"
)

// Scheme is one acyclic schema produced by phase 2, with the measures the
// paper's evaluation reports.
type Scheme struct {
	Schema  schema.Schema
	Tree    *schema.JoinTree
	J       float64   // J(S) per Lee (Eq. 6), in bits
	Support []mvd.MVD // the compatible MVD set Q the schema was built from
}

// M returns the number of relations in the scheme.
func (s *Scheme) M() int { return s.Schema.M() }

// EnumerateSchemes is ASMiner (Fig. 8): it builds the incompatibility
// graph over the given MVDs (Eq. 15), enumerates its maximal independent
// sets — the maximal pairwise-compatible subsets — and synthesizes one
// acyclic schema from each via BuildAcyclicSchema (Fig. 9). emit is called
// once per distinct schema; return false to stop early (the paper's
// run-for-30-minutes protocol). Schemes that fail join-tree construction
// (possible for approximate inputs whose compatible set is not tree-
// consistent) are skipped.
func (m *Miner) EnumerateSchemes(mvds []mvd.MVD, emit func(*Scheme) bool) {
	m.beginPhase()
	defer m.tracePhase("schemes")()
	ms := append([]mvd.MVD(nil), mvds...)
	mvd.Sort(ms)
	g := mis.NewGraph(len(ms))
	graphT0 := time.Now()
	graphStats := m.searchStats
	ok, edges := m.buildIncompatibilityGraph(g, ms)
	m.recordStage(&m.stages.graph, graphT0, graphStats, 1, int64(len(ms)))
	m.stages.graph.candidates += edges // incompatibility edges found (Eq. 15)
	if !ok {
		return // cancelled or past the deadline mid-build
	}
	enumerate := g.EnumerateBK
	if m.opts.UseJPYEnumerator {
		enumerate = g.EnumerateJPY
	}
	m.emitProgress(Progress{Phase: "schemes", MVDs: len(ms), Candidates: m.searchStats.Visited})
	streamed := 0
	seen := make(map[string]bool)
	enumerate(func(set []int) bool {
		synthT0 := time.Now()
		synthStats := m.searchStats
		emitted := int64(0)
		defer func() {
			m.recordStage(&m.stages.synth, synthT0, synthStats, 1, emitted)
		}()
		if m.stopped() {
			return false
		}
		q := make([]mvd.MVD, len(set))
		for k, idx := range set {
			q[k] = ms[idx]
		}
		sch, err := m.BuildAcyclicSchema(q)
		if err != nil {
			return true
		}
		m.stages.synth.candidates++ // compatible sets that synthesized a schema
		fp := sch.Fingerprint()
		if seen[fp] {
			return true
		}
		seen[fp] = true
		tree, err := schema.BuildJoinTree(sch)
		if err != nil {
			return true // not acyclic: cannot happen per Thm. 7.4, but stay safe
		}
		s := &Scheme{
			Schema:  sch,
			Tree:    tree,
			J:       info.JTree(m.src, tree),
			Support: q,
		}
		streamed++
		emitted = 1
		m.emitProgress(Progress{
			Phase:      "schemes",
			MVDs:       len(ms),
			Candidates: m.searchStats.Visited,
			Schemes:    streamed,
		})
		return emit(s)
	})
}

// buildIncompatibilityGraph fills g with the edges of Eq. 15. The graph
// is quadratic in |Mε| (tens of thousands of MVDs on wide approximate
// inputs), so cancellation must be observable while it is being built,
// not only once enumeration starts; it reports false when the build was
// cut short. With Options.Workers > 1 the upper-triangle rows are
// computed by a pool of goroutines claiming row stripes off an atomic
// cursor (Incompatible is pure, so this needs no oracle sharing), then
// folded into g serially — the edge set, and thus every enumerated
// scheme, is identical to a serial build. It reports whether the build
// completed and how many incompatibility edges it added.
func (m *Miner) buildIncompatibilityGraph(g *mis.Graph, ms []mvd.MVD) (bool, int64) {
	workers := m.opts.Workers
	edges := int64(0)
	if workers <= 1 || len(ms) < 64 {
		for i := range ms {
			if m.stopped() {
				return false, edges
			}
			for j := i + 1; j < len(ms); j++ {
				if Incompatible(ms[i], ms[j]) {
					g.AddEdge(i, j)
					edges++
				}
			}
		}
		return true, edges
	}
	rows := make([][]int32, len(ms))
	var next atomic.Int64
	var bail atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) || bail.Load() {
					return
				}
				// Poll the stop flag without mutating shared miner state
				// (stopped() records the cause; the parent does that
				// once, after the join).
				if m.done.Load() {
					bail.Store(true)
					return
				}
				var row []int32
				for j := i + 1; j < len(ms); j++ {
					if Incompatible(ms[i], ms[j]) {
						row = append(row, int32(j))
					}
				}
				rows[i] = row
			}
		}()
	}
	wg.Wait()
	if m.stopped() {
		return false, edges
	}
	for i, row := range rows {
		for _, j := range row {
			g.AddEdge(i, int(j))
			edges++
		}
	}
	return true, edges
}

// MineSchemes runs both phases end to end and collects up to maxSchemes
// schemes (0 = unlimited, subject to the bound context). An interruption
// during either phase is reported through the returned MVDResult.Err.
func (m *Miner) MineSchemes(maxSchemes int) ([]*Scheme, *MVDResult) {
	res := m.MineMVDs()
	var out []*Scheme
	m.EnumerateSchemes(res.MVDs, func(s *Scheme) bool {
		out = append(out, s)
		return maxSchemes <= 0 || len(out) < maxSchemes
	})
	if res.Err == nil {
		res.Err = m.interruptErr()
	}
	return out, res
}

// BuildAcyclicSchema is Fig. 9: starting from the universal schema {Ω},
// apply each MVD of q in ascending key-cardinality order, splitting the
// single relation that contains its key into the key-extended projections
// of its dependents. Redundant MVDs (that fail to split, line 7) are
// skipped. The result is acyclic and its join tree's support is contained
// in q (Thm. 7.4).
func (m *Miner) BuildAcyclicSchema(q []mvd.MVD) (schema.Schema, error) {
	return BuildAcyclicSchema(bitset.Full(m.oracle.NumAttrs()), q)
}

// BuildAcyclicSchema is the standalone form over an explicit universe.
func BuildAcyclicSchema(universe bitset.AttrSet, q []mvd.MVD) (schema.Schema, error) {
	sorted := append([]mvd.MVD(nil), q...)
	mvd.Sort(sorted)
	current := []bitset.AttrSet{universe}
	for _, phi := range sorted {
		// Find the relation containing the key (processing order makes it
		// unique for compatible sets; pick the first deterministically).
		target := -1
		for i, omega := range current {
			if phi.Key.SubsetOf(omega) {
				target = i
				break
			}
		}
		if target < 0 {
			continue // key not embedded: the MVD cannot decompose anything
		}
		omega := current[target]
		var parts []bitset.AttrSet
		for _, dep := range phi.Deps {
			part := dep.Union(phi.Key).Intersect(omega)
			if part != phi.Key {
				parts = append(parts, part)
			}
		}
		if len(parts) < 2 {
			continue // redundant MVD (Fig. 9 line 7)
		}
		current = append(current[:target:target], current[target+1:]...)
		current = append(current, parts...)
	}
	return schema.New(current)
}
