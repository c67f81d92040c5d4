package obs

import (
	"fmt"
	"strings"
	"time"
)

// MineTrace is the stage-level record of one mining call: one PhaseTrace
// per top-level phase, in execution order. The core miner fills it in,
// and maimon.WithTrace hands a copy to the caller when the call returns.
//
// The logical mining work in a trace is deterministic: a parallel mine
// at any worker fan-out performs exactly the work of a serial one (same
// separators, same candidate MVDs, same single-flight entropy computes),
// so the stage counts and the entropy-level oracle counts (HCalls,
// HComputes, HCached, MICalls) are identical across fan-outs, as is the
// PLI hits+misses sum. Under an entropy budget that evicts, phase 1's
// counts hold too — its workers read one another's entropy views before
// the memo — but a later phase reads through the memo alone, whose
// contents after eviction follow the order the workers published in, so
// its HComputes and HCached can differ by a few. The PLI-layer detail below that is not: how a
// partition chain is assembled depends on what compute order has already
// cached, so the hit/miss split, Intersects, EntropyOnly, and
// BytesTouched can shift slightly with scheduling. CountsOnly reduces a
// trace to the invariant projection for tests and diffing.
type MineTrace struct {
	// Phases are the top-level mining phases in execution order:
	// "minseps" or "mvds" (phase 1), then "schemes" (phase 2) for a
	// full MineSchemes run.
	Phases []PhaseTrace
}

// PhaseTrace is one top-level phase: driver wall time, the work the
// entropy/PLI substrate performed during the phase, and the worker-
// attributed stage breakdown.
type PhaseTrace struct {
	// Name is "minseps", "mvds", or "schemes".
	Name string
	// Wall is the driver-side elapsed time of the phase.
	Wall time.Duration
	// Oracle is the entropy/PLI work performed during the phase,
	// captured as counter deltas at the phase boundaries.
	Oracle OracleDelta
	// Stages break the phase into the paper's stages. Phase 1 has
	// "minsep" (minimal-separator mining, Fig. 5) and "fullmvd" (full
	// ε-MVD expansion, Figs. 6/16/17); phase 2 has "graph" (the
	// incompatibility-graph build, Eq. 15) and "synth" (acyclic-schema
	// synthesis + join-tree/GYO construction, Fig. 9).
	Stages []StageTrace
}

// StageTrace is one stage of a phase. CPU is summed across the worker
// goroutines that ran the stage (equal to wall time on a serial mine);
// the counts are deterministic across fan-outs.
type StageTrace struct {
	Name string
	// CPU is the total time worker goroutines spent in the stage.
	CPU time.Duration
	// Calls counts stage invocations: pairs whose separators were mined
	// ("minsep"), full-MVD searches run ("fullmvd" — a list already
	// settled for the key and pair of root dependents runs none), graph
	// builds, schema syntheses.
	Calls int64
	// Items counts the stage's products: separators found ("minsep"),
	// full MVDs returned by the searches pre-dedup ("fullmvd" — invariant
	// across fan-outs, unlike post-dedup intermediate counts), MVDs the
	// graph was built over ("graph"), schemes emitted ("synth").
	Items int64
	// JEvals counts the J-measures the stage's searches consulted, one
	// per candidate visited. (The J of a search's root depends on the
	// separator key alone; it is computed once per mine and read back by
	// the other searches with that key, each of which still counts it —
	// that is what keeps the count independent of the fan-out.) A search
	// runs once per key, pair of root dependents and stage in a mine; a
	// request already settled is answered from the key memo and counts
	// none.
	JEvals int64
	// Candidates counts candidate MVDs visited by the stage's searches
	// (a settled request visits none, as for JEvals);
	// for "graph" it is the incompatibility edges added, for "synth" the
	// compatible sets that synthesized a schema (pre-dedup).
	Candidates int64
}

// OracleDelta is the entropy-oracle and PLI-cache work performed during a
// phase: the difference of the engine's cumulative counters at the phase
// boundaries.
type OracleDelta struct {
	// HCalls / HComputes / HCached: entropy requests, the subset that
	// computed a fresh partition chain, and the subset served from the
	// memo (or an in-flight single-flight latch).
	HCalls    int64
	HComputes int64
	HCached   int64
	// MICalls counts conditional-mutual-information evaluations.
	MICalls int64
	// PLIHits / PLIMisses: partition-cache serves vs computes, counting
	// every top-level request and every read a build makes of a
	// multi-attribute operand. Their sum is deterministic across worker
	// fan-outs; the split is not — which requests find their partition
	// pre-installed as an operand of an earlier compute depends on
	// compute order.
	PLIHits   int64
	PLIMisses int64
	// Intersects counts pairwise partition intersections; EntropyOnly
	// the subset counted and never kept (a chain leaf's entropy or a
	// class table); BytesTouched the partition bytes the
	// intersection engine scanned doing it. Like the hit/miss split,
	// these depend on the order computes cached their operands, so they
	// are not invariant across worker fan-outs.
	Intersects   int64
	EntropyOnly  int64
	BytesTouched int64
}

// Phase returns the first phase with the given name, or nil.
func (t *MineTrace) Phase(name string) *PhaseTrace {
	for i := range t.Phases {
		if t.Phases[i].Name == name {
			return &t.Phases[i]
		}
	}
	return nil
}

// CountsOnly returns a copy of the trace reduced to the projection that
// is invariant across worker fan-outs: every duration is zeroed, the
// scheduling-dependent PLI hit/miss split is folded into PLIHits (their
// sum), and the other scheduling-dependent PLI work counts (Intersects,
// EntropyOnly, BytesTouched) are zeroed, leaving the deterministic
// stage and entropy-level counters.
func (t *MineTrace) CountsOnly() MineTrace {
	out := MineTrace{Phases: make([]PhaseTrace, len(t.Phases))}
	for i, p := range t.Phases {
		q := p
		q.Wall = 0
		q.Oracle.PLIHits, q.Oracle.PLIMisses = p.Oracle.PLIHits+p.Oracle.PLIMisses, 0
		q.Oracle.Intersects, q.Oracle.EntropyOnly, q.Oracle.BytesTouched = 0, 0, 0
		q.Stages = make([]StageTrace, len(p.Stages))
		for j, s := range p.Stages {
			s.CPU = 0
			q.Stages[j] = s
		}
		out.Phases[i] = q
	}
	return out
}

// String renders the trace as an aligned multi-line breakdown, the format
// `maimon -trace` prints.
func (t *MineTrace) String() string {
	b := &strings.Builder{}
	for i := range t.Phases {
		p := &t.Phases[i]
		d := p.Oracle
		fmt.Fprintf(b, "phase %-8s wall %-10s H %d computed / %d cached of %d calls, %d MI\n",
			p.Name, fmtDur(p.Wall), d.HComputes, d.HCached, d.HCalls, d.MICalls)
		fmt.Fprintf(b, "  %-9s PLI %d misses / %d hits, %d intersects (%d entropy-only: chain leaf or class table, %s touched)\n",
			"", d.PLIMisses, d.PLIHits, d.Intersects, d.EntropyOnly, fmtBytes(d.BytesTouched))
		for _, s := range p.Stages {
			fmt.Fprintf(b, "  %-9s cpu %-10s calls %-7d items %-7d J-evals %-8d candidates %d\n",
				s.Name, fmtDur(s.CPU), s.Calls, s.Items, s.JEvals, s.Candidates)
		}
	}
	return b.String()
}

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
