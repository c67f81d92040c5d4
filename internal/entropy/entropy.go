// Package entropy implements getEntropyR (paper Sec. 6.3): the oracle that
// serves joint entropies H(Xα) of attribute sets of a fixed relation under
// its empirical distribution, and the derived entropic measures
// (conditional entropy, conditional mutual information) used throughout
// Maimon.
//
// Entropies are measured in bits (log base 2), matching the paper's worked
// examples (H of four uniform tuples = log 4 = 2).
package entropy

import (
	"math"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/hsum"
	"repro/internal/pli"
	"repro/internal/relation"
	"repro/internal/stripe"
)

// Stats counts oracle work: the paper calls entropy computation "the most
// expensive operation of Maimon", so the experiments report these numbers.
type Stats struct {
	HCalls        int   // calls to H (after memoization of identical sets)
	HCached       int   // H calls answered from the entropy memo
	MICalls       int   // conditional mutual information evaluations
	MemoBytes     int64 // bytes the entropy memo retains (accounted per entry)
	MemoEvictions int   // memo entries evicted to stay within the entropy budget
	PLIStats      pli.Stats

	// MemoSeedHits is always 0: nothing imports memo entries any more.
	// The field stays only because the benchmark module (bench/trace.go)
	// compiles against it.
	MemoSeedHits int
}

// Oracle memoizes entropies of attribute sets over one relation. It is the
// single point through which all miners obtain entropic values, so its
// counters measure the true cost of a mining run. Every Oracle is safe for
// concurrent use and may back any number of concurrent miners over the
// same relation.
type Oracle struct {
	rel   *relation.Relation
	cache *pli.Cache

	// dense is the memo when the relation has at most
	// bitset.DenseMaxAttrs attributes and no budget below its size was
	// set (see SetMemoBudget): slot s holds the float64 bits of H(s), or
	// absent. It is never evicted, a warm read is one atomic load and
	// takes no lock. nil otherwise: memo holds the entropies.
	dense bitset.Dense[atomic.Uint64]

	// memo makes a miss single-flight per attribute set: the first reader
	// owns the set, counts (or, for a set other sets' partitions are
	// assembled from, builds) its partition without holding a lock, and
	// publishes, so distinct sets compute in parallel and duplicates wait
	// only on their own set. Over a dense memo the owner writes the
	// entropy there and keeps nothing here; otherwise memo holds every
	// entropy, inline at memoEntryBytes each. It can be bounded: at 64
	// attributes × many ε sweeps the 8-byte entropies plus their map
	// overhead become the dominant resident weight, so SetMemoBudget
	// gives the store a byte budget. An evicted entropy is simply
	// recomputed from the PLI cache on the next read — read off the
	// partition if the cache materialized one, counted again from its
	// operands if the set is a chain leaf — so a budget changes cost,
	// never results.
	memo      *stripe.Store[bitset.AttrSet, float64]
	evictions atomic.Int64

	// The call counters of the reads that go through no view (H, MI and
	// MICarried on the oracle itself), and the totals each view flushes
	// on Release. A view counts its own reads, hits and misses alike, in
	// private ints, so a mining worker bumps none of these per call.
	hCalls, hCached, miCalls atomic.Int64
}

// memoEntryBytes is the accounted resident weight of one hashed memo
// entry: the 8-byte key, the 8-byte entropy and its reference bit, and
// the map's slot overhead. TestMemoEntryHeap holds the heap it takes
// to at most half again this.
const memoEntryBytes = 48

// absent is the dense memo's mark for a set whose entropy is not known:
// the all-ones word is a NaN, which no entropy is.
const absent = ^uint64(0)

// New builds an oracle over r with the default PLI cache configuration.
func New(r *relation.Relation) *Oracle {
	return NewShared(r, pli.DefaultConfig())
}

// NewShared builds an oracle over r with an explicit PLI configuration.
// Like every oracle it is safe for concurrent use: any number of
// goroutines may call H/CondH/MI (and Stats) simultaneously. The memo is
// sharded (cfg.Shards, same striping as the PLI cache), so warm hits on
// different attribute sets scale with cores; misses are single-flight per
// attribute set — distinct fresh sets compute their partitions in
// parallel, duplicate requests wait on the first — so concurrent miners
// at different thresholds still share every partition and entropy
// computed by any of them, without serializing on a global lock. This is
// the oracle behind maimon.Session and the parallel mining pipeline
// (core.Options.Workers); its workers each hold a Local view carrying a
// worker-private PLI arena.
//
// Over at most bitset.DenseMaxAttrs attributes the memo is a table
// indexed by the set, 8 bytes for each of the 2ⁿ sets (64 KiB at 13
// attributes), allocated here; wider relations memoize in the shards.
func NewShared(r *relation.Relation, cfg pli.Config) *Oracle {
	o := &Oracle{
		rel:   r,
		cache: pli.NewCache(r, cfg),
		dense: bitset.NewDense[atomic.Uint64](r.NumCols()),
	}
	for i := range o.dense {
		o.dense[i].Store(absent)
	}
	o.memo = o.newMemo(cfg.Shards, 0)
	return o
}

// newMemo returns an empty memo store of stripe.Count(shards) shards under
// the given byte budget.
func (o *Oracle) newMemo(shards int, budget int64) *stripe.Store[bitset.AttrSet, float64] {
	return stripe.NewStore(shards, budget,
		func(float64) int64 { return memoEntryBytes },
		func(bitset.AttrSet, float64) { o.evictions.Add(1) })
}

// SetMemoBudget bounds the bytes the entropy memo retains. A budget the
// dense memo fits in (8·2ⁿ bytes over n ≤ bitset.DenseMaxAttrs
// attributes) leaves it as it is: it holds every set, so nothing is ever
// evicted. A smaller one, or any budget over a wider relation, makes the
// memo a hashed stripe.Store under that byte budget, each entry priced at
// memoEntryBytes. The budget is one rule, the PLI cache's: when a publish
// takes the memo over it, the second-chance clock of the shard that grew,
// then of the others, evicts until it fits — an entry read or published
// since the last sweep gets one lap of grace, a cold one goes — and an
// entropy that still does not fit is not kept. Evicted entropies are
// recomputed on demand, so the budget changes cost, never results. <= 0
// leaves the memo unbounded. Call before mining begins (session open
// time): the memo given up here is dropped with whatever it held.
func (o *Oracle) SetMemoBudget(bytes int64) {
	if bytes <= 0 || o.dense != nil && bytes >= o.denseBytes() {
		return
	}
	o.dense = nil
	o.memo = o.newMemo(o.memo.Shards(), bytes)
}

// denseBytes is the dense memo's size, 8 bytes per slot; 0 without one.
func (o *Oracle) denseBytes() int64 { return 8 * int64(len(o.dense)) }

// Close releases the PLI cache's disk spill tier; its segments stay on
// disk, so the next session over the same directory starts warm. A no-op
// without a spill tier; idempotent. The oracle itself stays usable for
// in-memory work, but nothing spills or promotes afterwards.
func (o *Oracle) Close() error { return o.cache.Close() }

// Relation returns the relation the oracle serves.
func (o *Oracle) Relation() *relation.Relation { return o.rel }

// Cache returns the PLI cache behind the entropies. What callers fetch
// from it (Get, Classes) is counted and budgeted like the oracle's own
// fetches. Safe for concurrent use: the cache carries its own locking.
func (o *Oracle) Cache() *pli.Cache { return o.cache }

// NumAttrs returns the number of attributes of the underlying relation.
func (o *Oracle) NumAttrs() int { return o.rel.NumCols() }

// Stats returns a snapshot of the oracle counters, consistent with any
// mining that has completed (happens-before) the call: a view's calls
// count once it is released. A dense memo is accounted at its whole size
// from the start.
func (o *Oracle) Stats() Stats {
	return Stats{
		HCalls:        int(o.hCalls.Load()),
		HCached:       int(o.hCached.Load()),
		MICalls:       int(o.miCalls.Load()),
		PLIStats:      o.cache.Stats(),
		MemoBytes:     o.denseBytes() + o.memo.Bytes(),
		MemoEvictions: int(o.evictions.Load()),
	}
}

// H returns the empirical joint entropy H(Xα) in bits, per Eq. (5).
// H(∅) = 0 and H(Ω) = log2 N when rows are distinct.
func (o *Oracle) H(attrs bitset.AttrSet) float64 {
	o.hCalls.Add(1)
	h, cached := o.hWith(nil, attrs)
	if cached {
		o.hCached.Add(1)
	}
	return h
}

// hWith is H for a worker view l, or for no view when l is nil; it
// reports whether the entropy was served rather than computed, and its
// caller counts the call. A warm read of a dense memo is one atomic load;
// otherwise the memo store's Acquire either answers the read or makes
// this caller the set's owner. No lock is held across the partition
// computation, so distinct sets compute concurrently while duplicates of
// the same set wait for their owner. An owner first looks again where a
// computed entropy may be kept outside the memo — the dense memo, and the
// views of l's peers — and hands a value found there over with Abort; so
// within one phase a set the memo has evicted is still counted once. The
// compute runs on the view's arena, or on a pooled arena without one —
// this single-flight compute is the one place partitions are counted and
// built, so it is where the arena matters. The view keeps the entropy
// before the memo publishes it, so a peer that owns the set next finds it
// there. The empty set is answered without a memo, never cached.
func (o *Oracle) hWith(l *Local, attrs bitset.AttrSet) (h float64, cached bool) {
	if attrs.IsEmpty() {
		return 0, false
	}
	if h, ok := o.denseGet(attrs); ok {
		return h, true
	}
	h, owner := o.memo.Acquire(attrs)
	if !owner {
		// Answered from the memo, or by the owner this call waited for:
		// a cached serve.
		l.keep(attrs, h)
		return h, true
	}
	// A dense entry is written, and a view's kept, before its owner lets
	// go of the set, so an owner finds the set in one of them once it
	// has been computed.
	h, ok := o.denseGet(attrs)
	if !ok {
		h, ok = l.peerGet(attrs)
	}
	if ok {
		o.memo.Abort(attrs, h)
		return h, true
	}
	if l != nil {
		h = o.cache.EntropyWith(l.a, attrs)
	} else {
		pa := pli.GetArena()
		h = o.cache.EntropyWith(pa, attrs)
		pli.PutArena(pa)
	}
	if o.dense != nil {
		o.dense.At(attrs).Store(math.Float64bits(h))
		o.memo.Abort(attrs, h)
	} else {
		l.keep(attrs, h)
		o.memo.Publish(attrs, h, false)
	}
	return h, false
}

// denseGet reads attrs from the dense memo, lock-free; false when there
// is none or the set is absent.
func (o *Oracle) denseGet(attrs bitset.AttrSet) (float64, bool) {
	if o.dense == nil {
		return 0, false
	}
	b := o.dense.At(attrs).Load()
	return math.Float64frombits(b), b != absent
}

// CondH returns the conditional entropy H(Y|X) = H(XY) − H(X).
func (o *Oracle) CondH(y, x bitset.AttrSet) float64 {
	return o.H(x.Union(y)) - o.H(x)
}

// MI returns the conditional mutual information
//
//	I(Y;Z|X) = H(XY) + H(XZ) − H(XYZ) − H(X)     (Eq. 2)
//
// clamped below at 0: the expression is non-negative for true
// distributions, and clamping removes the tiny negative values that
// floating-point cancellation can produce.
func (o *Oracle) MI(y, z, x bitset.AttrSet) float64 {
	o.miCalls.Add(1)
	return miSum(o.H(x.Union(y)), o.H(x.Union(z)), o.H(x.Union(y).Union(z)), o.H(x))
}

// MICarried is MI(y, z, x) for a caller that carries the three terms that
// do not need y and z together — hxy = H(x∪y), hxz = H(x∪z), hx = H(x).
// It looks up the fourth, hxyz = H(x∪y∪z), and returns it beside the
// value, so a caller that goes on to unite y and z holds the union's term
// already. It counts as one MI evaluation and one H call and sums in MI's
// order, so the value is bit-identical to MI's.
func (o *Oracle) MICarried(hxy, hxz, hx float64, y, z, x bitset.AttrSet) (mi, hxyz float64) {
	o.miCalls.Add(1)
	hxyz = o.H(x.Union(y).Union(z))
	return miSum(hxy, hxz, hxyz, hx), hxyz
}

// miSum is Eq. 2 in the one summation order every MI path uses.
func miSum(hxy, hxz, hxyz, hx float64) float64 {
	v := hxy + hxz - hxyz - hx
	if v < 0 {
		return 0
	}
	return v
}

// Local is a worker-local view of an oracle: the oracle's memo, cache,
// and counters, plus a dedicated PLI arena for this goroutine's
// single-flight computes, so a worker mining through it never touches the
// arena pool, never allocates intersection scratch, and answers its warm
// entropy reads without crossing the oracle's shard locks. The mining
// pipeline hands one to each worker goroutine of a phase, the lone worker
// of a serial mine included, all joined to one Team, and one more to the
// scheme phase, joined to the same Team.
//
// Over a dense memo a warm read is the oracle's own lock-free load, and
// the view keeps nothing. Over the hashed memo the view is a
// stripe.Words that belongs to its worker: only the worker writes it —
// every entropy the worker computes, before the memo publishes it, and
// every entropy the memo serves it — and, where the memo has a budget,
// the other workers of its team read it without a lock. A read looks in
// the worker's own view, then in its peers', then in the shared memo,
// and the owner of a memo claim looks in its peers' views again before
// it counts. So within one team each set is counted at most once,
// whatever the entropy budget has evicted from the memo and whatever the
// fan-out, as long as no view is full. Entropies are immutable, so a value a view retains is exact. A
// view is capped at localMemoCap entries, past which it keeps nothing
// new (existing entries keep serving); its entries are outside the
// memo's budget. Every read through the view, served or computed, counts
// in worker-private counters that Release flushes into the oracle's
// stats — workers release their views before each phase barrier, so
// phase-boundary Stats snapshots see the same HCalls/HCached/MICalls
// totals as a serial mine.
//
// A Local is bound to one goroutine at a time; Release returns its arena
// to the pool, and its view stays readable to its peers for as long as
// the team is. H/MI/MICarried are semantically identical to the oracle's
// own (same memo, same single-flight, same counters), so a Local
// satisfies the same entropy-source contract miners program against.
type Local struct {
	o                        *Oracle
	a                        *pli.Arena
	team                     *Team
	memo                     stripe.Words // bitset.AttrSet → float64 bits
	hCalls, hCached, miCalls int
}

// localMemoCap bounds a view; past it, new sets pass through to the
// shared memo unkept (existing entries keep serving).
const localMemoCap = 1 << 16

// Team is the worker views of one parallel phase: each worker's Local
// joins it, and reads the views of the others. A view stays readable
// after its worker releases it, for as long as the team is referenced —
// a mine keeps its mining phase's team until it ends, so that the scheme
// phase's view can join it and read what that phase counted. Only a memo that
// evicts has its views shared: an unbudgeted one keeps every entropy a
// peer has counted, and reaching it there takes one shard lock where a
// probe of each peer's view, once the views outgrow the caches, takes a
// cache miss apiece.
type Team struct {
	o      *Oracle
	views  []atomic.Pointer[stripe.Words]
	joined atomic.Int64
}

// Team returns an empty team of up to n views over o: the phase's
// worker count. Over a dense or an unbudgeted memo no view is shared.
func (o *Oracle) Team(n int) *Team {
	t := &Team{o: o}
	if o.dense == nil && o.memo.Budget() > 0 {
		t.views = make([]atomic.Pointer[stripe.Words], max(n, 1))
	}
	return t
}

// Local checks a worker view out of the arena pool and joins it to the
// team. Views past the team's n read their peers but are not read by
// them; over a memo that does not evict, none is read by another.
func (t *Team) Local() *Local {
	l := &Local{o: t.o, a: pli.GetArena(), team: t}
	if i := t.joined.Add(1) - 1; i < int64(len(t.views)) {
		t.views[i].Store(&l.memo)
	}
	return l
}

// Local checks a worker-local view with no peers out of the arena pool.
func (o *Oracle) Local() *Local { return o.Team(1).Local() }

// Release returns the view's arena to the pool and flushes the
// read-through counters into the shared stats; the Local must not be
// used afterwards. Its view is kept for the team's other workers.
func (l *Local) Release() {
	if l.hCalls+l.miCalls > 0 {
		l.o.hCalls.Add(int64(l.hCalls))
		l.o.hCached.Add(int64(l.hCached))
		l.o.miCalls.Add(int64(l.miCalls))
		l.hCalls, l.hCached, l.miCalls = 0, 0, 0
	}
	if l.a != nil {
		pli.PutArena(l.a)
		l.a = nil
	}
}

// H is Oracle.H computed on the view's arena, read through the dense memo
// or the team's views: a warm read is a load or a few table probes and
// two counter bumps, no shard lock, no allocation. Every call, a miss
// included, is counted in the view.
func (l *Local) H(attrs bitset.AttrSet) float64 {
	l.hCalls++
	// The empty set is answered without a memo — a call, never a cached
	// one, exactly as the oracle counts it.
	if attrs.IsEmpty() {
		return 0
	}
	h, ok := l.o.denseGet(attrs)
	if !ok && l.o.dense == nil {
		if b, own := l.memo.Get(uint64(attrs)); own {
			h, ok = math.Float64frombits(b), true
		} else {
			h, ok = l.peerGet(attrs)
		}
	}
	if !ok {
		h, ok = l.o.hWith(l, attrs)
	}
	if ok {
		l.hCached++
	}
	return h
}

// keep writes a hashed memo's entropy into the view, unless it is full;
// a no-op over a dense memo or without a view (l nil).
func (l *Local) keep(attrs bitset.AttrSet, h float64) {
	if l != nil && l.o.dense == nil && l.memo.Len() < localMemoCap {
		l.memo.Put(uint64(attrs), math.Float64bits(h))
	}
}

// peerGet reads attrs from the views of l's team other than its own;
// false without a view (l nil) or when no peer holds the set.
func (l *Local) peerGet(attrs bitset.AttrSet) (float64, bool) {
	if l == nil {
		return 0, false
	}
	for i := range l.team.views {
		if w := l.team.views[i].Load(); w != nil && w != &l.memo {
			if b, ok := w.Get(uint64(attrs)); ok {
				return math.Float64frombits(b), true
			}
		}
	}
	return 0, false
}

// MI is Oracle.MI computed on the view's arena. Like the H counters, the
// MI count is a view-private int that Release flushes — not a cross-core
// atomic add per call.
func (l *Local) MI(y, z, x bitset.AttrSet) float64 {
	l.miCalls++
	return miSum(l.H(x.Union(y)), l.H(x.Union(z)), l.H(x.Union(y).Union(z)), l.H(x))
}

// MICarried is Oracle.MICarried computed on the view's arena.
func (l *Local) MICarried(hxy, hxz, hx float64, y, z, x bitset.AttrSet) (mi, hxyz float64) {
	l.miCalls++
	hxyz = l.H(x.Union(y).Union(z))
	return miSum(hxy, hxz, hxyz, hx), hxyz
}

// NaiveH computes H(Xα) directly by grouping projected rows, without the
// PLI machinery. It exists to validate the oracle in tests; summed with
// the repository's one term function (package hsum), it equals the
// oracle's value exactly, not just within a tolerance.
func NaiveH(r *relation.Relation, attrs bitset.AttrSet) float64 {
	n := r.NumRows()
	if n == 0 || attrs.IsEmpty() {
		return 0
	}
	counts := make(map[string]int, n)
	for i := 0; i < n; i++ {
		counts[r.RowKey(i, attrs)]++
	}
	sc := hsum.For(n)
	var sum int64
	for _, c := range counts {
		sum += sc.Term(c)
	}
	return sc.Entropy(sum)
}
