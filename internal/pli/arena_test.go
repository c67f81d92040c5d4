package pli

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// skewedRelation builds a relation whose columns mix wide uniform
// domains, heavy skew (a dominant value), and high singleton density, so
// intersections exercise every grouping regime: large surviving clusters,
// stripped singletons, and empty results.
func skewedRelation(rng *rand.Rand, rows, cols int) *relation.Relation {
	colsData := make([][]relation.Code, cols)
	for j := range colsData {
		col := make([]relation.Code, rows)
		domain := 2 + rng.Intn(rows) // from near-constant to near-distinct
		skew := rng.Float64()
		for i := range col {
			if rng.Float64() < skew {
				col[i] = 0 // dominant value
			} else {
				col[i] = relation.Code(rng.Intn(domain))
			}
		}
		colsData[j] = col
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = string(rune('A' + j))
	}
	r, err := relation.FromCodes(names, colsData)
	if err != nil {
		panic(err)
	}
	return r
}

// TestArenaIntersectEquivalence is the randomized property suite of the
// intersection engine: on generated relations of varying domain width,
// skew, and singleton density, the arena path, the historical map
// grouping, and the direct FromAttrs construction must produce identical
// partitions — cluster order, row order, entropy bits and all.
func TestArenaIntersectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	a := NewArena()
	for trial := 0; trial < 120; trial++ {
		rows := 20 + rng.Intn(180)
		cols := 2 + rng.Intn(5)
		r := skewedRelation(rng, rows, cols)
		x := bitset.AttrSet(rng.Int63()) & bitset.Full(cols)
		y := bitset.AttrSet(rng.Int63()) & bitset.Full(cols)
		if x.IsEmpty() || y.IsEmpty() {
			continue
		}
		px, py := FromAttrs(r, x), FromAttrs(r, y)
		want := FromAttrs(r, x.Union(y))
		ref := intersectMap(px, py)
		if !Equal(ref, want) {
			t.Fatalf("trial %d: intersectMap(%v,%v) != FromAttrs", trial, x, y)
		}
		got := a.Intersect(px, py)
		if !Equal(got, want) {
			t.Fatalf("trial %d: arena Intersect(%v,%v) != FromAttrs", trial, x, y)
		}
		if got.Entropy() != want.Entropy() || got.Entropy() != ref.Entropy() {
			t.Fatalf("trial %d: fused entropies diverge: arena %v direct %v map %v",
				trial, got.Entropy(), want.Entropy(), ref.Entropy())
		}
	}
}

// TestIntersectEntropyExactness: the streaming count must reproduce the
// materialized entropy bit for bit — the memory-budget path answers H
// from it, and mined results may only be byte-identical across budgets if
// the floats are.
func TestIntersectEntropyExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	a := NewArena()
	for trial := 0; trial < 150; trial++ {
		rows := 10 + rng.Intn(300)
		cols := 2 + rng.Intn(5)
		r := skewedRelation(rng, rows, cols)
		x := bitset.AttrSet(rng.Int63()) & bitset.Full(cols)
		y := bitset.AttrSet(rng.Int63()) & bitset.Full(cols)
		if x.IsEmpty() || y.IsEmpty() {
			continue
		}
		px, py := FromAttrs(r, x), FromAttrs(r, y)
		want := a.Intersect(px, py).Entropy()
		got := a.IntersectEntropy(px, py)
		if got != want {
			t.Fatalf("trial %d: IntersectEntropy = %b, Intersect().Entropy() = %b", trial, got, want)
		}
	}
}

// TestArenaReuseAcrossShapes drives one arena through operands of wildly
// different sizes in both directions, checking that scratch state never
// leaks between operations.
func TestArenaReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := NewArena()
	big := skewedRelation(rng, 1000, 3)
	small := skewedRelation(rng, 12, 3)
	for trial := 0; trial < 40; trial++ {
		r := big
		if trial%2 == 1 {
			r = small
		}
		pa := SingleAttribute(r, rng.Intn(3))
		pb := SingleAttribute(r, rng.Intn(3))
		want := intersectMap(pa, pb)
		if !Equal(a.Intersect(pa, pb), want) {
			t.Fatalf("trial %d: arena result drifted after shape change", trial)
		}
		if h := a.IntersectEntropy(pa, pb); h != want.Entropy() {
			t.Fatalf("trial %d: entropy drifted after shape change", trial)
		}
	}
}

// resultAllocs is what a warm Arena.Intersect with a non-empty result
// allocates: the retained Partition and its rows and offsets arrays.
// Anything more means the count and fill passes' scratch is leaking back
// to the heap.
const resultAllocs = 3

// TestIntersectZeroAllocSteadyState is the allocation-regression gate of
// the intersection engine: once an arena has grown to a workload's
// high-water mark, the count-only path must perform zero amortized
// allocations per call, and the build (count, then fill) exactly those of
// its result. A regression here rebuilds the per-call garbage the arena
// rewrite removed, so CI runs this in the race-parallel job.
func TestIntersectZeroAllocSteadyState(t *testing.T) {
	r := datagen.Nursery().Head(2000)
	pa := SingleAttribute(r, 0)
	pb := SingleAttribute(r, 1)
	a := GetArena()
	defer PutArena(a)
	// Warm: grow the arena scratch and build the operands' probe arrays.
	a.Intersect(pa, pb)
	a.IntersectEntropy(pa, pb)

	if avg := testing.AllocsPerRun(100, func() {
		a.IntersectEntropy(pa, pb)
	}); avg != 0 {
		t.Errorf("warm IntersectEntropy allocates %v times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		a.Intersect(pa, pb)
	}); avg != resultAllocs {
		t.Errorf("warm Intersect allocates %v times per run, want %d (result only)", avg, resultAllocs)
	}
}

// TestCacheEntropyMatchesGet: the cache's entropy path — including the
// streaming branch chain leaves take — must agree exactly with
// materialized partitions, and streaming must happen exactly where it
// should: for the chain leaves and nothing else, with or without a budget,
// and never for a set whose partition is already resident. Under a budget
// nothing fits, nothing stays.
func TestCacheEntropyMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	r := skewedRelation(rng, 400, 8)
	free := NewCache(r, Config{BlockSize: 3}) // Get first: every Entropy is a hit
	cold := NewCache(r, Config{BlockSize: 3}) // Entropy only
	// A budget below any multi-attribute partition's floor (64 + probe +
	// rows): every partition built is retired as it is published.
	tiny := NewCache(r, Config{BlockSize: 3, MaxBytes: 1})
	asked, leaves := 0, 0
	for trial := 0; trial < 60; trial++ {
		attrs := bitset.AttrSet(rng.Int63()) & bitset.Full(8)
		if attrs.Len() < 2 {
			continue
		}
		asked++
		if cold.leaf(attrs) {
			leaves++
		}
		want := free.Get(attrs).Entropy()
		if got := free.Entropy(attrs); got != want {
			t.Fatalf("trial %d: resident Entropy(%v) = %b, Get().Entropy() = %b", trial, attrs, got, want)
		}
		if got := cold.Entropy(attrs); got != want {
			t.Fatalf("trial %d: unbudgeted Entropy(%v) = %b, want %b", trial, attrs, got, want)
		}
		if got := tiny.Entropy(attrs); got != want {
			t.Fatalf("trial %d: budgeted Entropy(%v) = %b, want %b", trial, attrs, got, want)
		}
	}
	if st := tiny.Stats(); st.EntropyOnly != leaves || st.BytesLive != 0 {
		t.Fatalf("1-byte budget streamed %d entropies, want the %d chain leaves, and rests at %d B: %+v",
			st.EntropyOnly, leaves, st.BytesLive, st)
	}
	if st := cold.Stats(); st.EntropyOnly != leaves || leaves == 0 || leaves == asked {
		t.Fatalf("unbudgeted cache streamed %d entropies, want the %d chain leaves of %d sets: %+v",
			st.EntropyOnly, leaves, asked, st)
	}
	if st := free.Stats(); st.EntropyOnly != 0 {
		t.Fatalf("cache streamed entropies of resident partitions: %+v", st)
	}
}

// TestOperandEntropyIsGet: the entropy of a set some chain reads as an
// operand is its Get. On twin caches, EntropyWith of every such set moves
// the stats — hits, misses, entries, live bytes, intersections, drops —
// exactly as GetWith does, unbudgeted, under a budget that evicts and
// under one no partition fits.
func TestOperandEntropyIsGet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := skewedRelation(rng, 300, 7)
	for _, budget := range []int64{0, 4 << 10, 1} {
		cfg := Config{BlockSize: 3, MaxBytes: budget, Shards: 1}
		viaEntropy, viaGet := NewCache(r, cfg), NewCache(r, cfg)
		a, b := NewArena(), NewArena()
		sets := 0
		for _, i := range rng.Perm(1 << 7) {
			set := bitset.AttrSet(i)
			if viaEntropy.leaf(set) {
				continue
			}
			sets++
			h := viaEntropy.EntropyWith(a, set)
			if want := viaGet.GetWith(b, set).Entropy(); h != want {
				t.Fatalf("budget %d: EntropyWith(%v) = %b, GetWith().Entropy() = %b", budget, set, h, want)
			}
			if got, want := viaEntropy.Stats(), viaGet.Stats(); got != want {
				t.Fatalf("budget %d: after %v EntropyWith's stats %+v, GetWith's %+v", budget, set, got, want)
			}
		}
		if sets == 0 {
			t.Fatalf("budget %d: no operand among the subsets", budget)
		}
	}
}

// TestCacheGetRaceCountsAsHit pins the stats contract on the install
// race: when a Get's map probe misses but another goroutine publishes the
// entry first, the request is served warm off that entry and must count
// as a hit. Single-flight guarantees exactly one goroutine installs a
// fresh set's entry — and the installer takes the latch before it fetches
// operands, so it alone walks the chain — so however the schedule
// interleaves, a burst of concurrent Gets for one fresh set yields
// exactly one miss per partition built (the set, and {0,2}, its one
// multi-attribute operand) and one hit per other racer. A racer whose
// probe preceded the publish must not count a miss of its own, nor
// operand reads, for computing nothing.
func TestCacheGetRaceCountsAsHit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := skewedRelation(rng, 300, 6)
	attrs := bitset.Of(0, 2, 4)
	const racers = 8
	for round := 0; round < 20; round++ {
		c := NewCache(r, Config{BlockSize: 3})
		start := make(chan struct{})
		done := make(chan struct{}, racers)
		for g := 0; g < racers; g++ {
			go func() {
				<-start
				c.Get(attrs)
				done <- struct{}{}
			}()
		}
		close(start)
		for g := 0; g < racers; g++ {
			<-done
		}
		st := c.Stats()
		if st.Misses != 2 || st.Hits != racers-1 {
			t.Fatalf("round %d: %d concurrent Gets of one fresh set counted %d misses / %d hits, want 2 / %d",
				round, racers, st.Misses, st.Hits, racers-1)
		}
	}
}
