package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/mvd"
	"repro/internal/par"
	"repro/internal/stripe"
)

// This file is the per-attribute-pair loop of MVDMiner and of the
// separator-only phase, at every fan-out. The pairs are claimed through
// par.For; each worker — the calling goroutine when there is one — runs
// its own cheap Miner view (fork) over the shared single-flight oracle.
// Per-pair outcomes are written into a slot array and merged back in
// canonical pair order, so every fan-out produces byte-identical results.

// fork returns a worker view of the miner: same oracle, options and
// context, fresh counters. The progress callback is stripped — the
// fan-out aggregates and emits progress itself. The worker reads H
// through a worker-local entropy view joined to the phase's team — same
// memo and single-flight as the shared oracle, under an entropy budget
// the entropies its peers have counted, and a dedicated PLI arena, so
// its entropy misses never contend on the arena pool or allocate
// intersection scratch. The returned release must run when the worker
// is done.
func (m *Miner) fork(team *entropy.Team) (w *Miner, release func()) {
	loc := team.Local()
	w = &Miner{oracle: m.oracle, src: loc, opts: m.opts, ctx: m.ctx, done: m.done, keys: m.keys}
	w.opts.Progress = nil
	return w, loc.Release
}

// add accumulates worker counters into s.
func (s *SearchStats) add(o SearchStats) {
	s.Searches += o.Searches
	s.Visited += o.Visited
	s.Pruned += o.Pruned
	s.JEvals += o.JEvals
	s.Repairs += o.Repairs
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
	seen       mvdSet // live MVD dedup, display only
	separators int
	candidates int
}

func newProgressAgg(emit func(Progress), phase string, total int) *progressAgg {
	return &progressAgg{emit: emit, phase: phase, pairsTotal: total}
}

// pairDone folds one completed pair into the aggregate and emits an
// event. With a nil callback only the atomic counter advances; with a
// callback the increment happens under mu, so events carry strictly
// increasing PairsDone and the final event reports PairsTotal.
func (a *progressAgg) pairDone(out *PairMVDs, visited int) {
	if a.emit == nil {
		a.pairsDone.Add(1)
		return
	}
	a.mu.Lock()
	done := int(a.pairsDone.Add(1))
	a.separators += len(out.Seps)
	a.candidates += visited
	for _, phi := range out.MVDs {
		a.seen.add(phi)
	}
	p := Progress{
		Phase:      a.phase,
		PairsDone:  done,
		PairsTotal: a.pairsTotal,
		Separators: a.separators,
		Candidates: a.candidates,
		MVDs:       len(a.seen.list),
	}
	a.emit(p)
	a.mu.Unlock()
}

// minePairMVDs is phase 1 over the given pairs, the body of MineMVDs,
// MineMinSepsAll and MinePairMVDs. Up to Options.Workers workers
// (par.For) each mine pairs with their own miner view — a fork reading H
// through a worker-local view — and fill the pairs' outcome slots; a
// one-worker mine runs the same fork on the calling goroutine. Outcomes
// are indexed like pairs, each pair's MVDs distinct and in discovery
// order; the cross-pair merge is the caller's. A pair the stop left unmined keeps
// no separators. expand=false restricts the work to the separator phase.
func (m *Miner) minePairMVDs(pairs [][2]int, phase string, expand bool) ([]PairMVDs, error) {
	m.beginPhase()
	defer m.tracePhase(phase)()
	m.emitProgress(Progress{Phase: phase, PairsTotal: len(pairs)})
	outs := make([]PairMVDs, len(pairs))
	for i, p := range pairs {
		outs[i].A, outs[i].B = min(p[0], p[1]), max(p[0], p[1])
	}
	agg := newProgressAgg(m.opts.Progress, phase, len(pairs))
	var statsMu sync.Mutex
	var last MinSepTrace // the final pair's, whichever worker mined it
	// The workers' entropy views: each reads the others', and the scheme
	// phase reads them all through m.team, so under an entropy budget a
	// set this phase counts is not counted again in the mine, at any
	// fan-out.
	team := m.oracle.Team(min(m.opts.Workers, len(pairs)))
	m.team = team
	par.For(len(pairs), m.opts.Workers, func() (func(int) bool, func()) {
		w, release := m.fork(team)
		return func(i int) bool {
				if w.stopped() {
					return false
				}
				out := &outs[i]
				before := w.searchStats.Visited
				out.Seps = w.MineMinSeps(out.A, out.B)
				if i == len(pairs)-1 {
					last = w.minsepTrace
				}
				if expand {
					w.expandPair(out)
				}
				agg.pairDone(out, w.searchStats.Visited-before)
				return true
			}, func() {
				release()
				statsMu.Lock()
				m.searchStats.add(w.searchStats)
				m.stages.add(&w.stages)
				statsMu.Unlock()
			}
	})
	// LastMinSepTrace reports the most recent MineMinSeps call: in pair
	// order that is the final pair.
	m.minsepTrace = last
	// All workers observed the same context; one parent-side poll records
	// the shared stop cause.
	m.stopped()
	return outs, m.interruptErr()
}

// expandPair fills out.MVDs with the full MVDs of every separator of the
// pair, in discovery order. No MVD repeats: each separator is a distinct
// key, and one key's list has none.
func (w *Miner) expandPair(out *PairMVDs) {
	t0 := time.Now()
	before := w.searchStats
	for _, sep := range out.Seps {
		if w.stopped() {
			break
		}
		// The dependents of the MVDs are shared with the key memo and
		// every other pair that reads the key: they are only read.
		out.MVDs = w.appendFullMVDs(out.MVDs, sep, out.A, out.B)
	}
	// Calls are the searches run, not the lists requested.
	w.recordStage(&w.stages.fullmvd, t0, before, int64(w.searchStats.Searches-before.Searches), int64(len(out.MVDs)))
}

// minePairs is minePairMVDs merged by MergePairs in pair order, so
// res.MVDs and res.MinSeps come out byte-identical at every fan-out.
func (m *Miner) minePairs(pairs [][2]int, phase string, expand bool) *MVDResult {
	ps, err := m.minePairMVDs(pairs, phase, expand)
	res := MergePairs(ps)
	res.Err = err
	return res
}

// MergePairs reduces per-pair outcomes to one MVDResult: each pair keeps
// its separators, full MVDs are deduplicated across pairs (first
// occurrence wins), and the union is sorted canonically. Given the
// outcomes in canonical pair order it is the merge of a single-node mine,
// which is how a coordinator reassembles shards mined on other machines
// byte for byte. A pair absent from ps contributes nothing, like a pair
// an interrupted mine never reached.
func MergePairs(ps []PairMVDs) *MVDResult {
	res := &MVDResult{MinSeps: make(map[Pair][]bitset.AttrSet)}
	var seen mvdSet
	for _, p := range ps {
		if len(p.Seps) > 0 {
			res.MinSeps[Pair{p.A, p.B}] = p.Seps
		}
		for _, phi := range p.MVDs {
			seen.add(phi)
		}
	}
	res.MVDs = seen.list
	mvd.Sort(res.MVDs)
	return res
}

// mvdSet keeps the first occurrence of each distinct MVD, in insertion
// order. Members are found by a 64-bit hash of the MVD and confirmed with
// MVD.Equal; the members that share a hash are chained through next from
// the first of them, the one the table holds. The zero value is empty.
type mvdSet struct {
	list  []mvd.MVD
	first stripe.Table[uint64, int32] // hash → position of its first member
	next  []int32                     // position → next member with its hash, or -1
}

// hashMVD chains stripe.Hash over the key and the dependents.
func hashMVD(m mvd.MVD) uint64 {
	h := stripe.Hash(uint64(m.Key))
	for _, d := range m.Deps {
		h = stripe.Hash(h ^ uint64(d))
	}
	return h
}

// add inserts m unless an equal MVD is already in s, and reports whether
// it did.
func (s *mvdSet) add(m mvd.MVD) bool { return s.insert(hashMVD(m), m) }

// insert is add with m's hash h given.
func (s *mvdSet) insert(h uint64, m mvd.MVD) bool {
	at := int32(len(s.list))
	i, ok := s.first.Get(h)
	if !ok {
		s.first.Put(h, at)
	} else {
		for ; ; i = s.next[i] {
			if s.list[i].Equal(m) {
				return false
			}
			if s.next[i] < 0 {
				break
			}
		}
		s.next[i] = at
	}
	s.list = append(s.list, m)
	s.next = append(s.next, -1)
	return true
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
