package core

import (
	"time"

	"repro/internal/entropy"
	"repro/internal/obs"
)

// This file is the miner's stage tracer: plain-int accumulators updated
// on each worker's own goroutine (merged under the parallel driver's
// stats lock, exactly like SearchStats), folded into obs.MineTrace
// phases at the top-level phase boundaries together with the oracle's
// counter deltas. Nothing here touches the entropy/PLI hot paths — the
// oracle is snapshotted twice per phase, and the per-stage timers wrap
// whole separator searches and full-MVD expansions, not individual H
// calls — so tracing adds zero allocations to the gated paths and never
// changes mined output.

// stageCounters accumulates one stage's work within the current phase.
type stageCounters struct {
	ns         int64 // time spent in the stage, summed across workers
	calls      int64
	items      int64
	jEvals     int64
	candidates int64
}

func (s *stageCounters) add(o stageCounters) {
	s.ns += o.ns
	s.calls += o.calls
	s.items += o.items
	s.jEvals += o.jEvals
	s.candidates += o.candidates
}

func (s *stageCounters) trace(name string) obs.StageTrace {
	return obs.StageTrace{
		Name:       name,
		CPU:        time.Duration(s.ns),
		Calls:      s.calls,
		Items:      s.items,
		JEvals:     s.jEvals,
		Candidates: s.candidates,
	}
}

// stageAccum is the per-miner (and per-worker) set of stage counters for
// the phase in flight. Workers fork with a zero accum; phase 1's fan-out
// merges worker accums back under the same lock as SearchStats.
type stageAccum struct {
	minsep  stageCounters // minimal-separator mining (Fig. 5)
	fullmvd stageCounters // full ε-MVD expansion (Figs. 6/16/17)
	graph   stageCounters // incompatibility-graph build (Eq. 15)
	synth   stageCounters // schema synthesis + join tree / GYO (Fig. 9)
}

func (s *stageAccum) add(o *stageAccum) {
	s.minsep.add(o.minsep)
	s.fullmvd.add(o.fullmvd)
	s.graph.add(o.graph)
	s.synth.add(o.synth)
}

// spans renders the accumulated stages of one phase, skipping stages
// that never ran (a minseps-only phase has no fullmvd stage).
func (s *stageAccum) spans() []obs.StageTrace {
	var out []obs.StageTrace
	for _, st := range []struct {
		name string
		c    *stageCounters
	}{
		{"minsep", &s.minsep},
		{"fullmvd", &s.fullmvd},
		{"graph", &s.graph},
		{"synth", &s.synth},
	} {
		if st.c.calls > 0 {
			out = append(out, st.c.trace(st.name))
		}
	}
	return out
}

// recordStage folds one stage invocation into c: elapsed time since t0,
// the caller-supplied call and item counts, and the J-evaluation /
// candidate work attributed by delta against the searchStats snapshot
// taken at stage entry. Stage call sites are disjoint (the full-MVD
// expansion runs after its pair's separator search returns), so the
// deltas never overlap.
func (m *Miner) recordStage(c *stageCounters, t0 time.Time, before SearchStats, calls, items int64) {
	c.ns += time.Since(t0).Nanoseconds()
	c.calls += calls
	c.items += items
	visited := int64(m.searchStats.Visited - before.Visited)
	c.jEvals += visited // one J per candidate visited
	c.candidates += visited
}

// tracePhase opens a top-level phase span: it snapshots the oracle
// counters and resets the stage accumulators, and returns the closure
// that closes the span — capturing the oracle delta and the stage
// breakdown into the miner's trace. Callers defer it at phase entry.
func (m *Miner) tracePhase(name string) func() {
	t0 := time.Now()
	before := m.oracle.Stats()
	m.stages = stageAccum{}
	return func() {
		after := m.oracle.Stats()
		m.trace.Phases = append(m.trace.Phases, obs.PhaseTrace{
			Name:   name,
			Wall:   time.Since(t0),
			Oracle: oracleDelta(before, after),
			Stages: m.stages.spans(),
		})
	}
}

// Trace returns the miner's stage-level mine trace: one phase per
// top-level mining call performed so far (a MineSchemes run records
// "mvds" then "schemes"), each with the phase's wall time, the
// entropy/PLI counter deltas and the per-stage breakdown. Stage and
// entropy-level counts are deterministic across worker fan-outs; only
// durations and PLI-layer scheduling detail vary — see
// obs.MineTrace.CountsOnly.
func (m *Miner) Trace() *obs.MineTrace { return &m.trace }

// oracleDelta folds two oracle snapshots into the phase's substrate
// work. Every field is a difference of cumulative counters, so the
// result is exact whenever the snapshots bracket the phase (the drivers
// only snapshot at phase boundaries, where all workers have joined).
func oracleDelta(before, after entropy.Stats) obs.OracleDelta {
	calls := int64(after.HCalls - before.HCalls)
	cached := int64(after.HCached - before.HCached)
	return obs.OracleDelta{
		HCalls:       calls,
		HComputes:    calls - cached,
		HCached:      cached,
		MICalls:      int64(after.MICalls - before.MICalls),
		PLIHits:      int64(after.PLIStats.Hits - before.PLIStats.Hits),
		PLIMisses:    int64(after.PLIStats.Misses - before.PLIStats.Misses),
		Intersects:   int64(after.PLIStats.Intersects - before.PLIStats.Intersects),
		EntropyOnly:  int64(after.PLIStats.EntropyOnly - before.PLIStats.EntropyOnly),
		BytesTouched: after.PLIStats.BytesTouched - before.PLIStats.BytesTouched,
	}
}
