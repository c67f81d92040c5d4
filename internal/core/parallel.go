package core

import (
	"sync"
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
	s.Repairs += o.Repairs
}

// progressAgg serializes progress emission from worker goroutines and
// keeps the cumulative counters the events carry, folded in under mu as
// pairs complete, so every event is a consistent snapshot.
type progressAgg struct {
	emit       func(Progress)
	phase      string
	pairsTotal int

	mu         sync.Mutex
	pairsDone  int
	seen       firstSet[mvd.MVD] // live MVD dedup, display only
	separators int
	candidates int
}

func newProgressAgg(emit func(Progress), phase string, total int) *progressAgg {
	return &progressAgg{emit: emit, phase: phase, pairsTotal: total}
}

// pairDone folds one completed pair into the aggregate and emits an
// event; it does nothing without a callback. Events carry strictly
// increasing PairsDone and the final event reports PairsTotal.
func (a *progressAgg) pairDone(out *PairMVDs, visited int) {
	if a.emit == nil {
		return
	}
	a.mu.Lock()
	a.pairsDone++
	a.separators += len(out.Seps)
	a.candidates += visited
	for _, phi := range out.MVDs {
		a.seen.insert(hashMVD(phi), phi)
	}
	p := Progress{
		Phase:      a.phase,
		PairsDone:  a.pairsDone,
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
	defer m.tracePhase(phase)()
	m.emitProgress(Progress{Phase: phase, PairsTotal: len(pairs)})
	outs := make([]PairMVDs, len(pairs))
	for i, p := range pairs {
		outs[i].A, outs[i].B = min(p[0], p[1]), max(p[0], p[1])
	}
	agg := newProgressAgg(m.opts.Progress, phase, len(pairs))
	var statsMu sync.Mutex
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
	// All workers observed the same context; one parent-side poll records
	// the shared stop cause.
	m.stopped()
	return outs, m.cause
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
func (m *Miner) minePairs(pairs [][2]int, phase string, expand bool) (*MVDResult, error) {
	ps, err := m.minePairMVDs(pairs, phase, expand)
	return MergePairs(ps), err
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
	var seen firstSet[mvd.MVD]
	for _, p := range ps {
		if len(p.Seps) > 0 {
			res.MinSeps[Pair{p.A, p.B}] = p.Seps
		}
		for _, phi := range p.MVDs {
			seen.insert(hashMVD(phi), phi)
		}
	}
	res.MVDs = seen.list
	mvd.Sort(res.MVDs)
	return res
}

// firstSet keeps the first occurrence of each distinct element, in
// insertion order: Mε's MVDs in phase 1, the schemes emitted in phase 2.
// Members are found by a 64-bit hash the caller gives (hashMVD,
// hashSets) and confirmed with Equal; the members that share a hash are
// chained through next from the first of them, the one the table holds.
// The zero value is empty.
type firstSet[T interface{ Equal(T) bool }] struct {
	list  []T
	first stripe.Table[uint64, int32] // hash → position of its first member
	next  []int32                     // position → next member with its hash, or -1
}

// hashSets chains stripe.Hash over the words of sets, starting from h.
func hashSets(h uint64, sets []bitset.AttrSet) uint64 {
	for _, s := range sets {
		h = stripe.Hash(h ^ uint64(s))
	}
	return h
}

// hashMVD chains stripe.Hash over the key and the dependents.
func hashMVD(m mvd.MVD) uint64 { return hashSets(stripe.Hash(uint64(m.Key)), m.Deps) }

// has reports whether a member of s equals v, whose hash is h.
func (s *firstSet[T]) has(h uint64, v T) bool {
	i, ok := s.first.Get(h)
	if !ok {
		return false
	}
	for ; i >= 0; i = s.next[i] {
		if s.list[i].Equal(v) {
			return true
		}
	}
	return false
}

// add appends v, whose hash is h; no member of s may equal it.
func (s *firstSet[T]) add(h uint64, v T) {
	at := int32(len(s.list))
	if i, ok := s.first.Get(h); !ok {
		s.first.Put(h, at)
	} else {
		for s.next[i] >= 0 {
			i = s.next[i]
		}
		s.next[i] = at
	}
	s.list = append(s.list, v)
	s.next = append(s.next, -1)
}

// insert adds v, whose hash is h, unless a member of s equals it, and
// reports whether it did.
func (s *firstSet[T]) insert(h uint64, v T) bool {
	if s.has(h, v) {
		return false
	}
	s.add(h, v)
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
