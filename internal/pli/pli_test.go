package pli

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/relation"
)

func paperR(t *testing.T) *relation.Relation {
	t.Helper()
	return relation.MustFromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		},
	)
}

// randomRelation builds a relation with controlled redundancy so stripped
// partitions are non-trivial.
func randomRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	colsData := make([][]relation.Code, cols)
	for j := range colsData {
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(rng.Intn(domain))
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

func TestSingleAttributeStripsSingletons(t *testing.T) {
	r := paperR(t)
	// Column E has values e1,e2,e3,e3: only {e3} forms a cluster.
	p := SingleAttribute(r, 4)
	if p.NumClusters() != 1 {
		t.Fatalf("E clusters = %d, want 1", p.NumClusters())
	}
	if got := p.Cluster(0); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("E cluster = %v", got)
	}
	// Column A: a1 at rows 0,3; a2 at rows 1,2.
	pa := SingleAttribute(r, 0)
	if pa.NumClusters() != 2 || pa.Size() != 4 {
		t.Fatalf("A partition: %d clusters size %d", pa.NumClusters(), pa.Size())
	}
}

func TestIntersectMatchesDirect(t *testing.T) {
	r := paperR(t)
	pa := SingleAttribute(r, 0)
	pd := SingleAttribute(r, 3)
	got := NewArena().Intersect(pa, pd)
	want := FromAttrs(r, bitset.Of(0, 3))
	if !Equal(got, want) {
		t.Fatalf("Intersect != FromAttrs:\n%v %v\n%v %v", got.rows, got.offsets, want.rows, want.offsets)
	}
}

func TestEntropyMatchesPaperExample(t *testing.T) {
	r := paperR(t)
	// H(BDE): marginals 1/4, 1/4, 1/2 -> 3/2 bits (Example 3.4).
	p := FromAttrs(r, bitset.Of(1, 3, 4))
	if h := p.Entropy(); math.Abs(h-1.5) > 1e-12 {
		t.Fatalf("H(BDE) = %v, want 1.5", h)
	}
	// H(ABCDEF) = log2(4) = 2.
	full := FromAttrs(r, bitset.Full(6))
	if h := full.Entropy(); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(Ω) = %v, want 2", h)
	}
	// H(A) = 1 (two values, 2 rows each).
	if h := SingleAttribute(r, 0).Entropy(); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(A) = %v, want 1", h)
	}
}

func TestEmptyAttrsPartition(t *testing.T) {
	r := paperR(t)
	p := FromAttrs(r, bitset.Empty())
	if p.NumClusters() != 1 || p.Size() != 4 {
		t.Fatalf("empty-set partition: %d clusters size %d", p.NumClusters(), p.Size())
	}
	if p.Entropy() != 0 {
		t.Fatalf("H(∅) = %v", p.Entropy())
	}
}

func TestProbe(t *testing.T) {
	r := paperR(t)
	p := SingleAttribute(r, 4) // only rows 2,3 clustered
	probe := probeSlots(p)
	if probe[0] != 0 || probe[1] != 0 {
		t.Fatal("singleton rows should probe to 0")
	}
	if probe[2] == 0 || probe[2] != probe[3] {
		t.Fatal("clustered rows should share a nonzero slot")
	}
}

// probeSlots reads p's probe back as ints (cluster id + 1, 0 for a
// stripped singleton), whatever width it was stored at.
func probeSlots(p *Partition) []int {
	pr := p.probeMap()
	switch {
	case pr.w1 != nil:
		return widen(pr.w1)
	case pr.w2 != nil:
		return widen(pr.w2)
	}
	return widen(pr.w4)
}

func widen[W probeSlot](probe []W) []int {
	out := make([]int, len(probe))
	for i, v := range probe {
		out[i] = int(v)
	}
	return out
}

func TestQuickIntersectEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	arena := NewArena()
	for trial := 0; trial < 60; trial++ {
		r := randomRelation(rng, 30+rng.Intn(50), 4, 3)
		a := bitset.AttrSet(rng.Intn(15)) & bitset.Full(4)
		b := bitset.AttrSet(rng.Intn(15)) & bitset.Full(4)
		if a.IsEmpty() || b.IsEmpty() {
			continue
		}
		got := arena.Intersect(FromAttrs(r, a), FromAttrs(r, b))
		want := FromAttrs(r, a.Union(b))
		if !Equal(got, want) {
			t.Fatalf("trial %d: Intersect(%v,%v) mismatch", trial, a, b)
		}
	}
}

func TestQuickEntropyBounds(t *testing.T) {
	// H is within [0, log2 N] for any column.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 20+rng.Intn(30), 3, 4)
		p := FromAttrs(r, bitset.Full(3))
		h := p.Entropy()
		return h >= 0 && h <= math.Log2(float64(r.NumRows()))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheServesCorrectPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(rng, 200, 12, 3)
	c := NewCache(r, Config{BlockSize: 4})
	for trial := 0; trial < 100; trial++ {
		attrs := bitset.AttrSet(rng.Int63()) & bitset.Full(12)
		got := c.Get(attrs)
		want := FromAttrs(r, attrs)
		if math.Abs(got.Entropy()-want.Entropy()) > 1e-9 {
			t.Fatalf("cache entropy mismatch for %v: %v vs %v", attrs, got.Entropy(), want.Entropy())
		}
	}
	st := c.Stats()
	if st.Misses == 0 || st.Intersects == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
}

func TestCacheHitsOnRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := randomRelation(rng, 100, 6, 3)
	c := NewCache(r, DefaultConfig())
	attrs := bitset.Of(0, 2, 4)
	c.Get(attrs)
	before := c.Stats().Hits
	c.Get(attrs)
	if c.Stats().Hits != before+1 {
		t.Fatal("repeat Get should hit the cache")
	}
}

func TestIntersectPanicsOnMismatchedRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r1 := randomRelation(rng, 10, 2, 2)
	r2 := randomRelation(rng, 11, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArena().Intersect(FromAttrs(r1, bitset.Single(0)), FromAttrs(r2, bitset.Single(0)))
}

func TestPartitionSizeShrinksAsSetsGrow(t *testing.T) {
	// The singleton-pruning property the paper relies on: adding
	// attributes can only shrink the stripped representation.
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 500, 6, 4)
	prev := FromAttrs(r, bitset.Single(0))
	cur := bitset.Single(0)
	for j := 1; j < 6; j++ {
		cur = cur.Add(j)
		next := FromAttrs(r, cur)
		if next.Size() > prev.Size() {
			t.Fatalf("partition grew from %d to %d at %v", prev.Size(), next.Size(), cur)
		}
		prev = next
	}
}
