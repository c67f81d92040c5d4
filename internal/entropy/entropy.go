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
	"sync"
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
	logN  float64

	// dense is the memo when the relation has at most
	// bitset.DenseMaxAttrs attributes and no budget below its size was
	// set (see SetMemoBudget): slot s holds the float64 bits of H(s), or
	// absent. It is never evicted, a warm read is one atomic load and
	// takes no lock, and the shards below keep only their in-flight
	// latches and counters. nil otherwise: the shards hold the memo.
	dense bitset.Dense[atomic.Uint64]

	// The memo is split into power-of-two shards by a hash of the
	// attribute set (the same striping as the PLI cache underneath); each
	// shard owns its slice of the memo, its in-flight latches, and
	// plain-int counters, all under one short mutex, so warm hits on
	// different sets touch different locks and counter cache lines. Misses
	// are single-flight per attribute set: a miss installs an in-flight
	// latch, releases the shard lock, counts (or, for a set other sets'
	// partitions are assembled from, builds) the partition, then
	// publishes, so distinct sets compute in parallel and duplicates wait
	// only on their own latch. The memo itself can be bounded: at 64
	// attributes × many ε sweeps the 8-byte entropies plus their map
	// overhead become the dominant resident weight, so SetMemoBudget
	// gives each shard a slice of it, kept by the PLI cache's clock. An
	// evicted entropy is simply recomputed from the PLI cache on the next
	// read — read off the partition if the cache materialized one,
	// counted again from its operands if the set is a chain leaf — so a
	// budget changes cost, never results.
	shards  []memoShard
	mask    uint64
	bounded bool // SetMemoBudget was called: shards keep clocks and evict
}

// memoShard is one stripe of the oracle: memo slice, in-flight
// latches, and counters, padded so neighboring shards do not share cache
// lines (the whole point of striping the counters). The counters are
// lock-free atomics within the padded shard: a warm read of the dense
// memo and an MI evaluation bump them without acquiring the shard mutex.
type memoShard struct {
	mu       sync.Mutex
	memo     map[bitset.AttrSet]memoVal // nil while the oracle is dense
	inflight map[bitset.AttrSet]*flight

	hCalls  atomic.Int64
	hCached atomic.Int64
	miCalls atomic.Int64

	// Memo-eviction state, all under mu: the shard's slice of the budget
	// in entries, the eviction count, and the clock over the memoized sets
	// (empty when the memo is unbounded). The shard's accounted bytes are
	// len(memo) × memoEntryBytes.
	maxEntries int
	evictions  int
	clock      stripe.Clock[bitset.AttrSet]

	_ [64]byte
}

// memoVal is one memoized entropy plus its clock reference bit. On a
// bounded memo every hit and publish sets it, as the PLI cache does, and
// the sweep clears it; an unbounded memo keeps no clock and sets no bits.
type memoVal struct {
	h   float64
	ref bool
}

// memoEntryBytes is the accounted resident weight of one memo entry:
// 8-byte key + 16-byte value + map bucket overhead.
const memoEntryBytes = 48

// absent is the dense memo's mark for a set whose entropy is not known:
// the all-ones word is a NaN, which no entropy is.
const absent = ^uint64(0)

// New builds an oracle over r with the default PLI cache configuration.
func New(r *relation.Relation) *Oracle {
	return NewShared(r, pli.DefaultConfig())
}

// flight is one in-flight entropy computation: done is closed once h is
// published. The goroutine that installed the flight computes; duplicate
// requests for the same set wait on it.
type flight struct {
	done chan struct{}
	h    float64
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
	n := stripe.Count(cfg.Shards)
	o := &Oracle{
		rel:    r,
		cache:  pli.NewCache(r, cfg),
		logN:   math.Log2(float64(r.NumRows())),
		dense:  bitset.NewDense[atomic.Uint64](r.NumCols()),
		shards: make([]memoShard, n),
		mask:   uint64(n - 1),
	}
	for i := range o.dense {
		o.dense[i].Store(absent)
	}
	for i := range o.shards {
		if o.dense == nil {
			o.shards[i].memo = make(map[bitset.AttrSet]memoVal)
		}
		o.shards[i].inflight = make(map[bitset.AttrSet]*flight)
	}
	return o
}

// SetMemoBudget bounds the bytes the entropy memo retains. A budget the
// dense memo fits in (8·2ⁿ bytes over n ≤ bitset.DenseMaxAttrs
// attributes) leaves it as it is: it holds every set, so nothing is ever
// evicted. A smaller one, or any budget over a wider relation, makes the
// memo the shards' hash tables, bounded. The budget is sliced in whole
// entries: of its E = ⌊bytes/memoEntryBytes⌋ entries each of the S shards
// holds ⌊E/S⌋ or ⌈E/S⌉, so the slices sum to at most the budget (a shard
// may hold none). When a publish pushes a shard past its slice, the
// shard's second-chance clock evicts until it fits: an entry read or
// published since the last sweep gets one lap of grace, a cold one goes.
// Evicted entropies are recomputed on demand, so the budget changes cost,
// never results. <= 0 leaves the memo unbounded. Call before mining
// begins (session open time): a dense memo given up here is dropped with
// whatever it held.
func (o *Oracle) SetMemoBudget(bytes int64) {
	if bytes <= 0 || o.dense != nil && bytes >= o.denseBytes() {
		return
	}
	if o.dense != nil {
		o.dense = nil
		for i := range o.shards {
			o.shards[i].memo = make(map[bitset.AttrSet]memoVal)
		}
	}
	entries, n := bytes/memoEntryBytes, int64(len(o.shards))
	for i := range o.shards {
		o.shards[i].maxEntries = int((entries + n - 1 - int64(i)) / n)
	}
	o.bounded = true
}

// denseBytes is the dense memo's size, 8 bytes per slot; 0 without one.
func (o *Oracle) denseBytes() int64 { return 8 * int64(len(o.dense)) }

// memoShardOf maps an attribute set to its memo shard.
func (o *Oracle) memoShardOf(attrs bitset.AttrSet) *memoShard {
	return &o.shards[stripe.Hash(uint64(attrs))&o.mask]
}

// Close releases the PLI cache's disk spill tier (persisting its index
// so the next session over the same directory starts warm). A no-op
// without a spill tier; idempotent. The oracle itself stays usable for
// in-memory work, but nothing spills or promotes afterwards.
func (o *Oracle) Close() error { return o.cache.Close() }

// Relation returns the relation the oracle serves.
func (o *Oracle) Relation() *relation.Relation { return o.rel }

// Partition returns the stripped partition of attrs from the PLI cache
// behind the entropies — a hit, a spill promotion or an intersect
// cascade, counted and budgeted like any other fetch. The partition is
// immutable and stays valid while the caller holds it, even once the
// cache has evicted it. Safe for concurrent use: the cache carries its
// own locking.
func (o *Oracle) Partition(attrs bitset.AttrSet) *pli.Partition {
	return o.cache.Get(attrs)
}

// NumAttrs returns the number of attributes of the underlying relation.
func (o *Oracle) NumAttrs() int { return o.rel.NumCols() }

// Stats returns a snapshot of the oracle counters. The striped per-shard
// counters are summed shard by shard (the memo sizes each under its
// shard's lock), so the snapshot is consistent with any mining that has
// completed (happens-before) the call. A dense memo is accounted at its
// whole size from the start.
func (o *Oracle) Stats() Stats {
	s := Stats{PLIStats: o.cache.Stats(), MemoBytes: o.denseBytes()}
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		s.MemoBytes += int64(len(sh.memo)) * memoEntryBytes
		s.MemoEvictions += sh.evictions
		sh.mu.Unlock()
		s.HCalls += int(sh.hCalls.Load())
		s.HCached += int(sh.hCached.Load())
		s.MICalls += int(sh.miCalls.Load())
	}
	return s
}

// H returns the empirical joint entropy H(Xα) in bits, per Eq. (5).
// H(∅) = 0 and H(Ω) = log2 N when rows are distinct.
func (o *Oracle) H(attrs bitset.AttrSet) float64 { return o.hWith(nil, attrs) }

// hWith is H on an optional caller arena. A warm read of a dense memo is
// one atomic load; otherwise one short critical section on the attribute
// set's shard covers the memo probe and — on a miss — installing or
// finding the in-flight latch. The shard lock is never held across the
// partition computation, so distinct sets compute concurrently (on the
// same shard included) while duplicates of the same set wait on their
// flight. The compute runs on the caller's arena when one is threaded in
// (workers mining through a Local), or on a pooled arena otherwise — this
// single-flight compute is the one place partitions are counted and
// built, so it is where the arena matters.
func (o *Oracle) hWith(a *pli.Arena, attrs bitset.AttrSet) float64 {
	sh := o.memoShardOf(attrs)
	sh.hCalls.Add(1)
	if attrs.IsEmpty() {
		return 0
	}
	if h, ok := o.denseGet(attrs); ok {
		sh.hCached.Add(1)
		return h
	}
	sh.mu.Lock()
	// A dense entry is published before its latch is withdrawn, so under
	// the lock a set is in the memo or in flight once it has been.
	if h, ok := o.memoGet(sh, attrs); ok {
		sh.hCached.Add(1)
		sh.mu.Unlock()
		return h
	}
	if f, ok := sh.inflight[attrs]; ok {
		// Answered from the latch once the owner publishes: a cached
		// serve.
		sh.hCached.Add(1)
		sh.mu.Unlock()
		<-f.done
		return f.h
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[attrs] = f
	sh.mu.Unlock()

	if a != nil {
		f.h = o.cache.EntropyWith(a, attrs)
	} else {
		pa := pli.GetArena()
		f.h = o.cache.EntropyWith(pa, attrs)
		pli.PutArena(pa)
	}

	sh.mu.Lock()
	switch {
	case o.dense != nil:
		o.dense.At(attrs).Store(math.Float64bits(f.h))
	case o.bounded:
		sh.memo[attrs] = memoVal{h: f.h, ref: true}
		sh.clock.Add(attrs)
		sh.clock.Sweep(sh.overBudget, sh.secondChance, sh.evict)
	default:
		sh.memo[attrs] = memoVal{h: f.h}
	}
	delete(sh.inflight, attrs)
	sh.mu.Unlock()
	close(f.done)
	return f.h
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

// memoGet reads attrs from the memo, dense or the shard's, setting a
// bounded entry's reference bit; the caller holds sh.mu.
func (o *Oracle) memoGet(sh *memoShard, attrs bitset.AttrSet) (float64, bool) {
	if o.dense != nil {
		return o.denseGet(attrs)
	}
	v, ok := sh.memo[attrs]
	if ok && o.bounded && !v.ref {
		sh.memo[attrs] = memoVal{h: v.h, ref: true}
	}
	return v.h, ok
}

// overBudget, secondChance and evict are the memo's side of the clock
// sweep; the caller holds sh.mu.
func (sh *memoShard) overBudget() bool { return len(sh.memo) > sh.maxEntries }

func (sh *memoShard) secondChance(attrs bitset.AttrSet) bool {
	v := sh.memo[attrs]
	sh.memo[attrs] = memoVal{h: v.h}
	return v.ref
}

func (sh *memoShard) evict(attrs bitset.AttrSet) {
	delete(sh.memo, attrs)
	sh.evictions++
}

// CondH returns the conditional entropy H(Y|X) = H(XY) − H(X).
func (o *Oracle) CondH(y, x bitset.AttrSet) float64 {
	return o.H(x.Union(y)) - o.H(x)
}

// countMI bumps the MI counter: a striped per-shard atomic, no lock
// acquisition — MI is evaluated once per J on J-heavy workloads.
func (o *Oracle) countMI(x bitset.AttrSet) { o.memoShardOf(x).miCalls.Add(1) }

// MI returns the conditional mutual information
//
//	I(Y;Z|X) = H(XY) + H(XZ) − H(XYZ) − H(X)     (Eq. 2)
//
// clamped below at 0: the expression is non-negative for true
// distributions, and clamping removes the tiny negative values that
// floating-point cancellation can produce.
func (o *Oracle) MI(y, z, x bitset.AttrSet) float64 {
	o.countMI(x)
	return miSum(o.H(x.Union(y)), o.H(x.Union(z)), o.H(x.Union(y).Union(z)), o.H(x))
}

// MICarried is MI(y, z, x) for a caller that carries the three terms that
// do not need y and z together — hxy = H(x∪y), hxz = H(x∪z), hx = H(x).
// It looks up the fourth, hxyz = H(x∪y∪z), and returns it beside the
// value, so a caller that goes on to unite y and z holds the union's term
// already. It counts as one MI evaluation and one H call and sums in MI's
// order, so the value is bit-identical to MI's.
func (o *Oracle) MICarried(hxy, hxz, hx float64, y, z, x bitset.AttrSet) (mi, hxyz float64) {
	o.countMI(x)
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

// LogN returns log2 N, the entropy of the full relation when all rows are
// distinct (Sec. 3.2).
func (o *Oracle) LogN() float64 { return o.logN }

// Local is a worker-local view of an oracle: the oracle's memo, cache,
// and counters, plus a dedicated PLI arena for this goroutine's
// single-flight computes, so a worker mining through it never touches the
// arena pool, never allocates intersection scratch, and answers its warm
// entropy reads without crossing the oracle's shard locks. The mining
// pipeline hands one to each worker goroutine, the lone worker of a
// serial mine included.
//
// Over a dense memo a warm read is the oracle's own lock-free load. Over
// the shards' hash tables the view keeps a private read-through memo of
// every entropy it has seen (capped so a pathological sweep cannot grow
// it without bound); entropies are immutable, so a locally retained value
// an entropy budget has since evicted from the shared shards is still
// exact. Either way a warm read counts as a cached H call in
// worker-private counters that Release flushes into the oracle's stats —
// workers release their views before each phase barrier, so
// phase-boundary Stats snapshots see the same HCalls/HCached/MICalls
// totals as a serial mine.
//
// A Local is bound to one goroutine at a time; Release returns its arena
// to the pool. H/CondH/MI/MICarried are semantically identical to the
// oracle's own (same memo, same single-flight, same counters), so a Local
// satisfies the same entropy-source contract miners program against.
type Local struct {
	o                        *Oracle
	a                        *pli.Arena
	memo                     localMemo
	hCalls, hCached, miCalls int
}

// localMemoCap bounds a view's read-through memo; past it, new sets pass
// through to the shared shards uncached (existing entries keep serving).
const localMemoCap = 1 << 16

// localMemo is the view's read-through memo: an open-addressed
// AttrSet → entropy table with linear probing, indexed by stripe.Hash and
// kept at most half full. A warm H is the mining search's innermost
// operation, and a Go map probe was a fifth of the search profile. The
// empty set is never stored (H answers it first), so key 0 marks a vacant
// slot; nothing is ever deleted.
type localMemo struct {
	slots []localSlot // power-of-two length, or nil before the first put
	n     int
}

type localSlot struct {
	key bitset.AttrSet
	h   float64
}

func (t *localMemo) get(k bitset.AttrSet) (float64, bool) {
	if t.slots == nil {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := stripe.Hash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.key {
		case k:
			return s.h, true
		case 0:
			return 0, false
		}
	}
}

// put records k → h unless the memo is at localMemoCap; k must be
// non-empty and absent.
func (t *localMemo) put(k bitset.AttrSet, h float64) {
	if t.n >= localMemoCap {
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]localSlot, max(512, 2*len(old)))
		for _, s := range old {
			if s.key != 0 {
				t.place(s)
			}
		}
	}
	t.place(localSlot{key: k, h: h})
	t.n++
}

func (t *localMemo) place(s localSlot) {
	mask := uint64(len(t.slots) - 1)
	i := stripe.Hash(uint64(s.key)) & mask
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// Local checks a worker-local view out of the arena pool.
func (o *Oracle) Local() *Local {
	return &Local{o: o, a: pli.GetArena()}
}

// Oracle returns the oracle behind the view.
func (l *Local) Oracle() *Oracle { return l.o }

// Release returns the view's arena to the pool, flushes the read-through
// counters into the shared stats, and drops the private memo; the Local
// must not be used afterwards.
func (l *Local) Release() {
	if l.hCalls+l.miCalls > 0 {
		sh := &l.o.shards[0]
		sh.hCalls.Add(int64(l.hCalls))
		sh.hCached.Add(int64(l.hCached))
		sh.miCalls.Add(int64(l.miCalls))
		l.hCalls, l.hCached, l.miCalls = 0, 0, 0
	}
	l.memo = localMemo{}
	if l.a != nil {
		pli.PutArena(l.a)
		l.a = nil
	}
}

// H is Oracle.H computed on the view's arena, read through the dense memo
// or the view's private one: a warm read is a load or a table probe and
// two counter bumps, no shard lock, no allocation.
func (l *Local) H(attrs bitset.AttrSet) float64 {
	// The empty set is answered without a memo — a call, never a cached
	// one, exactly as the oracle counts it — and stays out of the local
	// memo, whose vacant-slot mark it is.
	if attrs.IsEmpty() {
		l.hCalls++
		return 0
	}
	if l.o.dense != nil {
		if h, ok := l.o.denseGet(attrs); ok {
			l.hCalls++
			l.hCached++
			return h
		}
		return l.o.hWith(l.a, attrs)
	}
	if h, ok := l.memo.get(attrs); ok {
		l.hCalls++
		l.hCached++
		return h
	}
	h := l.o.hWith(l.a, attrs)
	l.memo.put(attrs, h)
	return h
}

// CondH returns H(Y|X) = H(XY) − H(X).
func (l *Local) CondH(y, x bitset.AttrSet) float64 {
	return l.H(x.Union(y)) - l.H(x)
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
