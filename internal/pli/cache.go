package pli

import (
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/relation"
	"repro/internal/spill"
	"repro/internal/stripe"
)

// Stats counts the work a Cache has done; the experiments report these to
// show the effect of the Sec. 6.3 design.
type Stats struct {
	Hits         int   // requests — top level (single attributes included) or a chain's for a multi-attribute operand — served by a resident partition
	Misses       int   // such requests that had to compute: a partition built, or an entropy counted
	Intersects   int   // pairwise partition intersections performed
	EntropyOnly  int   // intersections counted and never kept: a chain leaf's entropy or a class table
	Entries      int   // partitions currently cached (live, post-eviction, all shards)
	BytesLive    int64 // bytes retained by evictable (multi-attribute) partitions
	BytesPinned  int64 // bytes retained by pinned (single-attribute) partitions, outside the budget
	Drops        int   // partitions evicted to stay within the memory budget and discarded — the next request recomputes
	Demotions    int   // partitions evicted to stay within the memory budget and spilled to the disk tier instead
	BytesTouched int64 // partition bytes scanned by the intersection engine (row ids read + probe lookups)

	SpillBytes  int64 // on-disk footprint of the spill tier (0 without a SpillDir)
	SpillHits   int   // requests served by promoting a spilled partition instead of recomputing
	SpillReadNS int64 // nanoseconds spent reading promoted partitions back from disk
}

// Config tunes a Cache.
type Config struct {
	// BlockSize is the paper's L (Sec. 6.3), the widest a block may be:
	// the n attributes are laid out in max(2, ⌈n/L⌉) blocks whose widths
	// differ by at most one, and partitions are assembled blockwise.
	// Only sets inside one block, or clear of the last one, are ever
	// built; two balanced blocks keep those to about 2·2^(n/2) where one
	// full block would build 2^(n−1). Default 10.
	BlockSize int
	// MaxBytes is the cache's memory budget: the total Partition.SizeBytes
	// of retained multi-attribute partitions. When an insert pushes the
	// cache over the budget, cold partitions are evicted (per shard, by a
	// second-chance clock) until it fits again; evicted partitions are
	// recomputed on demand, so a budget changes cost, never results.
	// Single-attribute partitions are pinned — never evicted and not
	// counted against the budget (Stats.BytesPinned reports them). A
	// partition whose SizeBytes alone exceeds the budget is handed to its
	// requester and retired at once, evicting nothing else. <= 0 means
	// unlimited.
	MaxBytes int64
	// Shards is the number of cache shards (rounded up to a power of
	// two); <= 0 picks a default from GOMAXPROCS. More shards mean less
	// lock contention between concurrent miners and evictions that block
	// only the shard they sweep.
	Shards int
	// SpillDir enables the disk spill tier: evictions *demote* a
	// partition into an append-only segment store under this directory
	// when rebuilding it would scan more bytes than reading it back
	// (recompute cost vs spill read cost), and a later miss promotes it
	// with one sequential read instead of re-running the intersection
	// cascade. Purely a cost trade on the miss path — results stay
	// byte-identical to spill-off at every budget. "" disables the tier.
	// If the directory cannot be opened the cache logs and runs without
	// it rather than failing.
	SpillDir string
	// SpillMaxBytes bounds the spill tier's on-disk footprint; past it
	// the oldest spill segments are deleted (their partitions become
	// plain misses again). <= 0 means unlimited.
	SpillMaxBytes int64
}

// DefaultConfig mirrors the paper's implementation choices.
func DefaultConfig() Config { return Config{BlockSize: 10} }

// Cache computes and memoizes stripped partitions for attribute sets of a
// fixed relation. It is the library's equivalent of the paper's PLI cache
// of CNT/TID tables, with the blockwise assembly of Sec. 6.3: every set of
// two attributes or more is one intersection of two smaller sets (split),
// and the chain of those below a set is what sets sharing a prefix share.
//
// Operands are materialized, leaves are counted. A set some chain can read
// as an operand is built and published the first time anything — a Get,
// an entropy, a chain on its way to a larger set — needs it. A chain leaf
// (leaf) can be read by no chain, so the entropy path never builds one:
// its H is the count pass over its two operands (Stats.EntropyOnly), so
// are its classes (Classes, for any set not resident), and only a Get,
// which wants the partition, materializes it. On the 13-column
// bench relation (blocks of 7 and 6) that is all but 177 of the 8,178
// multi-attribute sets.
//
// The partitions live in a stripe.Store: power-of-two shards by a hash of
// the attribute set, each with a second-chance clock over its evictable
// entries that keeps the cache within its byte budget (Config.MaxBytes),
// so an eviction sweep locks one shard at a time and never blocks
// concurrent Gets on the others. Single-attribute partitions are pinned;
// an evicted partition is demoted to the spill tier or dropped (retire).
//
// Cache is safe for concurrent use: the store is single-flight — the
// first goroutine to request a set owns it, computes the partition
// without holding a lock, then publishes it, so duplicate requests wait
// only on their own set while distinct sets compute in parallel. Waits
// follow the strict-subset order of the blockwise assembly, so they
// cannot cycle. A set in flight is never in an eviction clock.
//
// All computation runs on an Arena. GetWith/EntropyWith thread the
// caller's worker-local arena through the whole blockwise chain; the
// arena-less wrappers check one out of the package pool per call.
type Cache struct {
	rel     *relation.Relation
	cfg     Config
	blocks  []bitset.AttrSet
	blockOf []uint8 // attribute -> index of its block

	parts *stripe.Store[bitset.AttrSet, cached]

	hits         atomic.Int64
	misses       atomic.Int64
	intersects   atomic.Int64
	entropyOnly  atomic.Int64
	drops        atomic.Int64
	demotions    atomic.Int64
	spillHits    atomic.Int64
	spillReadNS  atomic.Int64
	bytesTouched atomic.Int64

	// store is the disk spill tier; nil unless Config.SpillDir is set
	// and opened. Evictions demote into it, misses promote out of it.
	store *spill.Store
}

// cached is one resident partition and its recompute cost: the bytes its
// own build scanned, which decides demote or drop when it is evicted.
type cached struct {
	p    *Partition
	cost float64
}

// NewCache builds a cache over r with the given configuration and
// precomputes the single-attribute partitions (pinned in their shards).
func NewCache(r *relation.Relation, cfg Config) *Cache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 10
	}
	n := r.NumCols()
	c := &Cache{rel: r, cfg: cfg}
	c.parts = stripe.NewStore(cfg.Shards, cfg.MaxBytes, func(e cached) int64 { return e.p.SizeBytes() }, c.retire)
	c.blocks, c.blockOf = layout(n, cfg.BlockSize)
	for j := 0; j < n; j++ {
		c.parts.Publish(bitset.Single(j), cached{p: SingleAttribute(r, j)}, true)
	}
	if cfg.SpillDir != "" {
		st, err := spill.Open(spill.Config{
			Dir:       cfg.SpillDir,
			ShapeHash: r.ShapeHash(),
			MaxBytes:  cfg.SpillMaxBytes,
		})
		if err != nil {
			// The spill tier is an optimization; a broken directory must
			// not fail the mine. Run without it.
			slog.Warn("pli: spill tier unavailable; evictions will drop instead of demote",
				"dir", cfg.SpillDir, "error", err)
		} else {
			c.store = st
		}
	}
	return c
}

// layout cuts attributes 0..n-1 into max(2, ⌈n/maxWidth⌉) consecutive
// blocks whose widths differ by at most one, the wider ones first (one
// block when there is a single attribute). At least two, because the sets
// that are built are those inside one block or clear of the last: the
// paper's one block of ten was sized for an engine that materializes every
// table, and ours counts the leaves.
func layout(n, maxWidth int) (blocks []bitset.AttrSet, blockOf []uint8) {
	k := min(n, max(2, (n+maxWidth-1)/maxWidth))
	blockOf = make([]uint8, n)
	for b, start := 0, 0; b < k; b++ {
		width := n / k
		if b < n%k {
			width++
		}
		var set bitset.AttrSet
		for j := start; j < start+width; j++ {
			set = set.Add(j)
			blockOf[j] = uint8(b)
		}
		blocks = append(blocks, set)
		start += width
	}
	return blocks, blockOf
}

// Close syncs the spill tier's segments and releases its file handles;
// the next Open over the same directory rescans them and starts warm.
// Partitions already promoted own their arrays and stay valid, but no
// new spill reads or demotions happen afterwards. A cache without a
// spill tier has nothing to close. Idempotent.
func (c *Cache) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// MaxBytes returns the cache's memory budget (Config.MaxBytes); 0 means
// none.
func (c *Cache) MaxBytes() int64 { return c.cfg.MaxBytes }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:         int(c.hits.Load()),
		Misses:       int(c.misses.Load()),
		Intersects:   int(c.intersects.Load()),
		EntropyOnly:  int(c.entropyOnly.Load()),
		Entries:      c.parts.Len(),
		BytesLive:    c.parts.Bytes(),
		BytesPinned:  c.parts.PinnedBytes(),
		Drops:        int(c.drops.Load()),
		Demotions:    int(c.demotions.Load()),
		BytesTouched: c.bytesTouched.Load(),
		SpillHits:    int(c.spillHits.Load()),
		SpillReadNS:  c.spillReadNS.Load(),
	}
	if c.store != nil {
		st.SpillBytes = c.store.Bytes()
	}
	return st
}

// Get returns the stripped partition for attrs, computing and caching it
// if needed, on an arena from the package pool. Hot-path callers that own
// an arena should use GetWith.
func (c *Cache) Get(attrs bitset.AttrSet) *Partition {
	a := GetArena()
	defer PutArena(a)
	return c.GetWith(a, attrs)
}

// served reports where a materialize got its partition from: warm off an
// already-published entry, fresh from the build, or promoted from the
// disk spill tier. The distinction drives the stats — the issue of
// record for the spill tier is that spill reads are counted separately
// from fresh computes, so a dashboard can see recomputes actually fall.
type served int8

const (
	servedWarm served = iota
	servedFresh
	servedSpill
)

// count routes one top-level serve into the stats: warm → Hits, fresh →
// Misses, spill → neither (spillLoad already counted the SpillHit).
func (c *Cache) count(sv served) {
	switch sv {
	case servedWarm:
		c.hits.Add(1)
	case servedFresh:
		c.misses.Add(1)
	}
}

// GetWith is Get on the caller's arena. Concurrent requests for the same
// fresh set compute it once; the rest wait on its entry. A warm serve —
// single-attribute sets and lost install races included — counts toward
// Stats.Hits and refreshes the entry's eviction standing; only requests
// that actually computed the partition count as misses, and a promotion
// from the spill tier counts as a SpillHit instead of either.
func (c *Cache) GetWith(a *Arena, attrs bitset.AttrSet) *Partition {
	if p, ok := c.resident(attrs); ok {
		return p
	}
	p, _, sv := c.partition(a, attrs)
	c.count(sv)
	return p
}

// resident returns the published partition of attrs, waiting out a build
// in flight, as a hit that refreshes the entry's eviction standing; ok is
// false when the set is not cached.
func (c *Cache) resident(attrs bitset.AttrSet) (*Partition, bool) {
	e, ok := c.parts.Get(attrs)
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return e.p, true
}

// Entropy returns the entropy of the partition for attrs, on a pooled
// arena; see EntropyWith.
func (c *Cache) Entropy(attrs bitset.AttrSet) float64 {
	a := GetArena()
	defer PutArena(a)
	return c.EntropyWith(a, attrs)
}

// EntropyWith returns the entropy of the partition for attrs — the value
// every getEntropyR call bottoms out in. A set some chain can read as an
// operand is GetWith's partition, read for its fused sum. A chain leaf
// that is not resident is counted instead: its two operands are fetched
// (built and cached if need be) and the arena's streaming count over them
// is the answer — bit-identical, nothing materialized, nothing to evict
// (Stats.EntropyOnly). Hit and miss accounting matches GetWith.
func (c *Cache) EntropyWith(a *Arena, attrs bitset.AttrSet) float64 {
	if !c.leaf(attrs) {
		return c.GetWith(a, attrs).Entropy()
	}
	if p, ok := c.resident(attrs); ok {
		return p.Entropy()
	}
	return a.IntersectEntropy(c.counted(a, attrs))
}

// counted fetches the operands of a set that is counted and never kept —
// a leaf's entropy, a class table — and accounts the count pass the caller
// runs over them: a miss, an intersection, EntropyOnly.
func (c *Cache) counted(a *Arena, attrs bitset.AttrSet) (left, right *Partition) {
	left, right, _ = c.operands(a, attrs)
	c.countIntersect(left, right)
	c.misses.Add(1)
	c.entropyOnly.Add(1)
	return left, right
}

// materialize returns the partition for attrs, building it via build at
// most once per cached entry: the owner computes and publishes, every
// concurrent duplicate waits for it. build returns the
// partition plus its recompute cost (the bytes the build actually
// scanned, cascaded child rebuilds included), which decides demote vs
// drop when the entry is evicted.
// Published entries are subject to eviction; a later request for an
// evicted set lands here again — and, when a spill tier holds the set's
// demoted record, the owner promotes it with one sequential read instead
// of calling build at all. The promotion happens inside the single-flight
// window: concurrent duplicates wait for the owner whether it computed or
// read from disk. The second return reports how this call was served —
// servedWarm means it rode an entry some other goroutine published first
// (no compute happened here).
func (c *Cache) materialize(attrs bitset.AttrSet, build func() (*Partition, int64)) (*Partition, served) {
	e, owner := c.parts.Acquire(attrs)
	if !owner {
		return e.p, servedWarm
	}
	sv := servedFresh
	if p, cost, ok := c.spillLoad(attrs); ok {
		e, sv = cached{p, cost}, servedSpill
	} else {
		p, cost := build()
		e = cached{p, float64(cost)}
	}
	c.parts.Publish(attrs, e, attrs.Len() <= 1)
	return e.p, sv
}

// spillLoad promotes attrs from the disk spill tier, if present there: a
// checksummed sequential read copied into a Partition that owns its
// arrays. The record's stored
// recompute cost survives the round trip, so a promoted entry is judged
// by the same demote-vs-drop rule next time. ok is false on any miss — no
// store, never demoted, or a record that failed validation (which the
// store unindexes).
func (c *Cache) spillLoad(attrs bitset.AttrSet) (*Partition, float64, bool) {
	if c.store == nil {
		return nil, 0, false
	}
	start := time.Now()
	f, ok := c.store.Get(uint64(attrs))
	if !ok {
		return nil, 0, false
	}
	c.spillHits.Add(1)
	c.spillReadNS.Add(time.Since(start).Nanoseconds())
	return &Partition{n: f.NumRows, rows: f.Rows, offsets: f.Offsets, hsum: f.Hsum}, f.Cost, true
}

// spillReadPenalty weighs a byte read back from the spill tier against a
// byte scanned by the intersection engine when retire decides a
// partition's fate. Disk (even page-cache-warm disk) is slower per byte
// than the in-memory count loop the recompute cost was measured in, so a
// demotion must buy back several times its read size in avoided rebuild
// scanning to be worth keeping.
const spillReadPenalty = 4

// retire is the store's eviction hook, run under the evicted entry's
// shard lock once the store has released its slot and bytes: it either
// demotes the partition to the spill tier (when rebuilding it would cost
// more than reading it back) or drops it. Whoever already holds the
// partition is unaffected — it is immutable. The demote-vs-drop rule is
// the point of the cost-aware plumbing: e.cost is the bytes the
// partition's own build cascade scanned, the read cost is its flat
// payload weighted by spillReadPenalty — cheap-to-rebuild partitions
// aren't worth the disk.
func (c *Cache) retire(attrs bitset.AttrSet, e cached) {
	if c.demote(attrs, e) {
		c.demotions.Add(1)
	} else {
		c.drops.Add(1)
	}
}

// demote writes the partition's flat record into the spill tier,
// reporting whether the eviction became a demotion. A key the store
// already holds skips the rewrite — partitions are deterministic, so the
// record a previous demotion wrote is still the partition — and still
// counts as a demotion.
func (c *Cache) demote(attrs bitset.AttrSet, e cached) bool {
	if c.store == nil {
		return false
	}
	payload := 4 * int64(len(e.p.rows)+len(e.p.offsets))
	if e.cost <= float64(payload*spillReadPenalty) {
		return false
	}
	key := uint64(attrs)
	if c.store.Contains(key) {
		return true
	}
	err := c.store.Put(key, spill.Flat{
		NumRows: e.p.n,
		Rows:    e.p.rows,
		Offsets: e.p.offsets,
		Hsum:    e.p.hsum,
		Cost:    e.cost,
	})
	return err == nil
}

// split names the one intersection that produces attrs (two attributes
// or more) in the blockwise assembly of Sec. 6.3. Within a block a set is
// its highest attribute's pinned partition intersected with the rest;
// across blocks it is its piece in the last block it touches intersected
// with everything before. Applied recursively this is the chain of attrs:
// every set on it is a subset of one block or a union of whole pieces,
// which is what lets sets that share a prefix share the work.
func (c *Cache) split(attrs bitset.AttrSet) (left, right bitset.AttrSet) {
	hi := attrs.Max()
	piece := attrs.Intersect(c.blocks[c.blockOf[hi]])
	if piece == attrs {
		return attrs.Remove(hi), bitset.Single(hi)
	}
	return attrs.Diff(piece), piece
}

// leaf reports whether attrs is a chain leaf: a set that split never
// returns for any other set, so no chain can read its partition as an
// operand. Left operands either stay clear of the last block or sit below
// their block's top attribute; right operands lie inside one block, and
// past the first one. What remains touches the last block and an earlier
// one.
func (c *Cache) leaf(attrs bitset.AttrSet) bool {
	last := c.blocks[len(c.blocks)-1]
	return attrs.Intersects(last) && !attrs.SubsetOf(last)
}

// partition returns the partition of attrs, building it at most once per
// cached entry: the installer fetches the two operands split names — each
// through partition again, so the whole chain below is materialized and
// published on the way — and intersects them. paid is the intersection
// bytes this call actually scanned, cascaded operand builds included and
// zero when served warm or from the spill tier; it doubles as the entry's
// recompute cost, so an entry whose absence forces a deep rebuild (its
// operands were evicted too) carries that full miss penalty, not just its
// final intersect. The served value mirrors materialize's.
func (c *Cache) partition(a *Arena, attrs bitset.AttrSet) (*Partition, int64, served) {
	var paid int64
	p, sv := c.materialize(attrs, func() (*Partition, int64) {
		if attrs.IsEmpty() {
			return FromAttrs(c.rel, attrs), 0
		}
		left, right, chain := c.operands(a, attrs)
		paid = chain + scanBytes(left, right)
		return c.intersect(a, left, right), paid
	})
	return p, paid, sv
}

// operands fetches the two partitions whose intersection is attrs — each
// through partition, so the chain below is built and published on the
// way — and returns them with the bytes their own chains scanned. Each
// multi-attribute read counts as GetWith counts a request. (Single
// attributes are pinned and always resident; reading one says nothing
// about the cache.) The callers — the owner of attrs' build, a leaf's
// count, Classes — cannot lose an install race for attrs, so every read
// counted is one the work used, and Hits + Misses does not depend on the
// order or the fan-out requests arrive in.
func (c *Cache) operands(a *Arena, attrs bitset.AttrSet) (left, right *Partition, paid int64) {
	ls, rs := c.split(attrs)
	left, lp := c.operand(a, ls)
	right, rp := c.operand(a, rs)
	return left, right, lp + rp
}

func (c *Cache) operand(a *Arena, set bitset.AttrSet) (*Partition, int64) {
	p, paid, sv := c.partition(a, set)
	if set.Len() >= 2 {
		c.count(sv)
	}
	return p, paid
}

func (c *Cache) intersect(a *Arena, p, q *Partition) *Partition {
	c.countIntersect(p, q)
	return a.Intersect(p, q)
}

// scanBytes is the partition bytes one intersection's count pass scans:
// the engine iterates the smaller operand's row ids (4 bytes each) and
// probes the other side's cluster index per row, counted at 4 more
// whatever the probe's width (1, 2 or 4 bytes), so 8 bytes per scanned
// row and the counter stays comparable across probe widths. It doubles
// as the recompute cost of the result.
func scanBytes(p, q *Partition) int64 {
	n := p.Size()
	if qs := q.Size(); qs < n {
		n = qs
	}
	return 8 * int64(n)
}

// countIntersect accounts one intersection: the call itself plus the
// bytes its count pass scans. Two lock-free atomic adds; nothing here
// allocates, keeping the instrumented hot path inside the 0 B/op gates.
func (c *Cache) countIntersect(p, q *Partition) {
	c.intersects.Add(1)
	c.bytesTouched.Add(scanBytes(p, q))
}
