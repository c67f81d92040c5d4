package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mvd"
)

// This file is the per-attribute-pair loop of MVDMiner and of the
// separator-only phase, at every fan-out. With Options.Workers > 1 each
// worker goroutine runs its own cheap Miner view (fork) over the shared
// single-flight oracle; with one worker the calling miner runs the same
// loop itself. Either way the loop reads entropies through a worker-local
// view (bindLocal). Per-pair outcomes are written into a slot array and
// merged back in canonical pair order, so a parallel run produces
// byte-identical results to a serial one.

// fork returns a worker-local view of the miner: same oracle, options and
// context, fresh counters. The progress callback is stripped — the
// parallel drivers aggregate and emit progress themselves. The worker's
// entropy source starts as the shared oracle; the fan-out rebinds it to a
// worker-local view (bindLocal) for the goroutine's lifetime.
func (m *Miner) fork() *Miner {
	w := &Miner{oracle: m.oracle, src: m.oracle, opts: m.opts, ctx: m.ctx, done: m.done, keys: m.keys}
	w.opts.Progress = nil
	return w
}

// bindLocal gives the worker a worker-local entropy view — same memo and
// single-flight as the shared oracle, plus a dedicated PLI arena, so the
// worker's entropy misses never contend on the arena pool or allocate
// intersection scratch. The returned release must run when the worker
// goroutine exits.
func (w *Miner) bindLocal() (release func()) {
	loc := w.oracle.Local()
	w.src = loc
	return loc.Release
}

// add accumulates worker counters into s.
func (s *SearchStats) add(o SearchStats) {
	s.Searches += o.Searches
	s.Visited += o.Visited
	s.Pruned += o.Pruned
	s.JEvals += o.JEvals
	s.Repairs += o.Repairs
}

// pairOutcome is one attribute pair's mining product, indexed by the
// pair's position in the canonical pair list.
type pairOutcome struct {
	seps  []bitset.AttrSet
	mvds  []mvd.MVD // locally deduped, discovery order
	trace MinSepTrace
}

// progressAgg serializes progress emission from worker goroutines and
// keeps the cumulative counters the events carry. PairsDone is advanced
// atomically; the other counters are folded in under mu as pairs
// complete, so every event is a consistent snapshot.
type progressAgg struct {
	emit       func(Progress)
	phase      string
	pairsTotal int
	pairsDone  atomic.Int64

	mu         sync.Mutex
	seen       map[string]bool // live MVD dedup, display only
	separators int
	candidates int
	mvds       int
}

func newProgressAgg(emit func(Progress), phase string, total int) *progressAgg {
	a := &progressAgg{emit: emit, phase: phase, pairsTotal: total}
	if emit != nil {
		a.seen = make(map[string]bool)
	}
	return a
}

// pairDone folds one completed pair into the aggregate and emits an
// event. With a nil callback only the atomic counter advances; with a
// callback the increment happens under mu, so events carry strictly
// increasing PairsDone and the final event reports PairsTotal.
func (a *progressAgg) pairDone(out *pairOutcome, visited int) {
	if a.emit == nil {
		a.pairsDone.Add(1)
		return
	}
	a.mu.Lock()
	done := int(a.pairsDone.Add(1))
	a.separators += len(out.seps)
	a.candidates += visited
	for _, phi := range out.mvds {
		if fp := phi.Fingerprint(); !a.seen[fp] {
			a.seen[fp] = true
			a.mvds++
		}
	}
	p := Progress{
		Phase:      a.phase,
		PairsDone:  done,
		PairsTotal: a.pairsTotal,
		Separators: a.separators,
		Candidates: a.candidates,
		MVDs:       a.mvds,
	}
	a.emit(p)
	a.mu.Unlock()
}

// minePairOutcomes is the per-pair fan-out shared by the single-node
// parallel pipeline and the distributed worker path: workers claim pairs
// off an atomic cursor and mine separators and full MVDs with their own
// miner view, filling one outcome slot per pair. Each outcome is locally
// deduped in discovery order; the cross-pair merge is the caller's
// (minePairs merges into one MVDResult, a distributed coordinator merges
// shards' outcomes the same way). expand=false restricts the work
// to the separator phase (MineMinSepsAll). workers <= 1 runs the claim
// loop on the calling miner itself — no fork — reading H through a
// worker-local view for the phase like every other fan-out, so a
// one-worker mine (every fleet worker) keeps its own arena and read-through
// memo instead of taking a shard lock per warm hit.
func (m *Miner) minePairOutcomes(pairs [][2]int, workers int, phase string, expand bool) []pairOutcome {
	outcomes := make([]pairOutcome, len(pairs))
	agg := newProgressAgg(m.opts.Progress, phase, len(pairs))
	var next atomic.Int64
	claim := func(w *Miner) {
		for {
			idx := int(next.Add(1)) - 1
			if idx >= len(pairs) || w.stopped() {
				return
			}
			a, b := pairs[idx][0], pairs[idx][1]
			if a > b {
				a, b = b, a
			}
			out := &outcomes[idx]
			before := w.searchStats.Visited
			out.seps = w.MineMinSeps(a, b)
			out.trace = w.minsepTrace
			if expand {
				expT0 := time.Now()
				expStats := w.searchStats
				found := int64(0) // pre-dedup returns, so the count is fan-out invariant
				localSeen := make(map[string]bool)
				for _, sep := range out.seps {
					if w.stopped() {
						break
					}
					// The list may be one another pair settled: it is
					// only read, and its MVDs are shared as they are.
					for _, phi := range w.GetFullMVDs(sep, a, b, 0) {
						found++
						if fp := phi.Fingerprint(); !localSeen[fp] {
							localSeen[fp] = true
							out.mvds = append(out.mvds, phi)
						}
					}
				}
				// Calls are the searches run, not the lists requested.
				w.recordStage(&w.stages.fullmvd, expT0, expStats,
					int64(w.searchStats.Searches-expStats.Searches), found)
			}
			agg.pairDone(out, w.searchStats.Visited-before)
		}
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		src := m.src
		release := m.bindLocal()
		claim(m)
		release()
		m.src = src
		return outcomes
	}
	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := m.fork()
			defer w.bindLocal()()
			defer func() {
				statsMu.Lock()
				m.searchStats.add(w.searchStats)
				m.stages.add(&w.stages)
				statsMu.Unlock()
			}()
			claim(w)
		}()
	}
	wg.Wait()
	return outcomes
}

// minePairs is the body of MineMVDs and MineMinSepsAll: the pairs are
// mined through minePairOutcomes — on a worker pool, or on m itself when
// there is one worker — and the outcomes merged by MergePairs in pair
// order, so res.MVDs and res.MinSeps come out byte-identical at every
// fan-out. expand=false restricts the work to the separator phase.
func (m *Miner) minePairs(pairs [][2]int, phase string, expand bool) *MVDResult {
	m.beginPhase()
	defer m.tracePhase(phase)()
	m.emitProgress(Progress{Phase: phase, PairsTotal: len(pairs)})
	outcomes := m.minePairOutcomes(pairs, m.opts.Workers, phase, expand)
	res := MergePairs(pairMVDs(pairs, outcomes))
	// LastMinSepTrace reports the most recent MineMinSeps call: in pair
	// order that is the final pair, whichever worker mined it.
	if n := len(outcomes); n > 0 {
		m.minsepTrace = outcomes[n-1].trace
	}
	// All workers observed the same context and deadline; one parent-side
	// poll records the shared stop cause.
	m.stopped()
	res.Err = m.interruptErr()
	return res
}

// MergePairs reduces per-pair outcomes to one MVDResult: each pair keeps
// its separators, full MVDs are deduplicated by fingerprint across pairs
// (first occurrence wins), and the union is sorted canonically. Given the
// outcomes in canonical pair order it is the merge of a single-node mine,
// which is how a coordinator reassembles shards mined on other machines
// byte for byte. A pair absent from ps contributes nothing, like a pair
// an interrupted mine never reached.
func MergePairs(ps []PairMVDs) *MVDResult {
	res := &MVDResult{MinSeps: make(map[Pair][]bitset.AttrSet)}
	seen := make(map[string]bool)
	for _, p := range ps {
		if len(p.Seps) > 0 {
			res.MinSeps[Pair{p.A, p.B}] = p.Seps
		}
		for _, phi := range p.MVDs {
			if fp := phi.Fingerprint(); !seen[fp] {
				seen[fp] = true
				res.MVDs = append(res.MVDs, phi)
			}
		}
	}
	mvd.Sort(res.MVDs)
	return res
}

// allPairs returns the canonical attribute-pair list (a < b).
func allPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}
