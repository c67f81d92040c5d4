package pli

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/stripe"
)

// getSets pulls every set in order through the cache once.
func getSets(c *Cache, sets []bitset.AttrSet) {
	for _, s := range sets {
		c.Get(s)
	}
}

// randomSets returns distinct multi-attribute sets over n attributes.
func randomSets(rng *rand.Rand, n, count int) []bitset.AttrSet {
	seen := make(map[bitset.AttrSet]bool)
	var out []bitset.AttrSet
	for len(out) < count {
		s := bitset.AttrSet(rng.Int63()) & bitset.Full(n)
		if s.Len() < 2 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// TestEvictionRespectsByteBudget drives a tightly budgeted cache through
// many distinct sets and checks the contract: evictions happen, the
// resting occupancy never exceeds the budget, and every partition served
// after (and despite) eviction matches the reference construction.
func TestEvictionRespectsByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := datagen.Uniform(600, 10, 4, 11)
	// Learn the workload's unlimited footprint first, then rerun under a
	// quarter of it.
	sets := randomSets(rng, 10, 40)
	free := NewCache(r, Config{BlockSize: 4})
	getSets(free, sets)
	footprint := free.Stats().BytesLive
	if footprint <= 0 {
		t.Fatalf("unlimited run retained nothing (BytesLive=%d)", footprint)
	}

	budget := footprint / 4
	c := NewCache(r, Config{BlockSize: 4, MaxBytes: budget})
	for round := 0; round < 3; round++ {
		for _, s := range sets {
			got := c.Get(s)
			want := FromAttrs(r, s)
			if !Equal(got, want) {
				t.Fatalf("round %d: partition for %v differs from reference after eviction", round, s)
			}
			if live := c.Stats().BytesLive; live > budget {
				t.Fatalf("round %d: BytesLive %d exceeds budget %d at rest", round, live, budget)
			}
		}
	}
	st := c.Stats()
	if st.Drops+st.Demotions == 0 {
		t.Fatalf("budget %d of footprint %d forced no evictions: %+v", budget, footprint, st)
	}
	if st.Entries == 0 {
		t.Fatalf("cache emptied completely: %+v", st)
	}
}

// TestEvictionPinsSingleAttributes: under a budget so tight nothing
// multi-attribute survives, the pre-seeded single-attribute partitions
// must remain resident — same pointer before and after the churn.
func TestEvictionPinsSingleAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := datagen.Uniform(400, 8, 3, 13)
	c := NewCache(r, Config{BlockSize: 3, MaxBytes: 1})
	singles := make([]*Partition, 8)
	for j := 0; j < 8; j++ {
		singles[j] = c.Get(bitset.Single(j))
	}
	getSets(c, randomSets(rng, 8, 30))
	st := c.Stats()
	if st.Drops+st.Demotions == 0 {
		t.Fatalf("1-byte budget forced no evictions: %+v", st)
	}
	for j := 0; j < 8; j++ {
		if got := c.Get(bitset.Single(j)); got != singles[j] {
			t.Fatalf("single-attribute partition %d was evicted (pointer changed)", j)
		}
	}
	if st.BytesLive < 0 {
		t.Fatalf("BytesLive went negative: %+v", st)
	}
	if got := c.Stats().Entries; got < 8 {
		t.Fatalf("Entries = %d, want at least the 8 pinned singles", got)
	}
}

// shardEntries returns the live entry count per shard.
func (c *Cache) shardEntries() []int {
	out := make([]int, c.parts.Shards())
	c.parts.Range(func(s bitset.AttrSet, _ cached) {
		out[stripe.Hash(uint64(s))&uint64(len(out)-1)]++
	})
	return out
}

// TestShardDistribution: the shard hash must spread attribute sets out —
// with 8 shards and dozens of live sets, several shards must be occupied
// beyond the pre-seeded singles.
func TestShardDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := datagen.Uniform(300, 12, 3, 17)
	c := NewCache(r, Config{BlockSize: 4, Shards: 8})
	if got := c.parts.Shards(); got != 8 {
		t.Fatalf("Shards: 8 built %d shards", got)
	}
	getSets(c, randomSets(rng, 12, 60))
	occupied := 0
	total := 0
	for _, n := range c.shardEntries() {
		total += n
		if n > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Fatalf("only %d of 8 shards occupied: %v", occupied, c.shardEntries())
	}
	if total != c.Stats().Entries {
		t.Fatalf("shard entries sum %d != Stats().Entries %d", total, c.Stats().Entries)
	}
}

// TestShardCountRounding: requested shard counts round up to powers of
// two, and a non-positive request picks a sane default.
func TestShardCountRounding(t *testing.T) {
	r := datagen.Uniform(50, 4, 3, 19)
	for _, tc := range []struct{ req, want int }{{1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		c := NewCache(r, Config{Shards: tc.req})
		if got := c.parts.Shards(); got != tc.want {
			t.Fatalf("Shards: %d built %d shards, want %d", tc.req, got, tc.want)
		}
	}
	if c := NewCache(r, Config{}); c.parts.Shards()&(c.parts.Shards()-1) != 0 || c.parts.Shards() == 0 {
		t.Fatalf("default shard count %d is not a power of two", c.parts.Shards())
	}
}

// TestSingleAttributeHitCounted: warm hits on single-attribute
// partitions count toward Stats.Hits (they used to be silently skipped,
// understating the hit rate).
func TestSingleAttributeHitCounted(t *testing.T) {
	r := datagen.Uniform(100, 4, 3, 29)
	c := NewCache(r, DefaultConfig())
	before := c.Stats().Hits
	c.Get(bitset.Single(2))
	if got := c.Stats().Hits; got != before+1 {
		t.Fatalf("Hits = %d after single-attribute warm Get, want %d", got, before+1)
	}
}

// TestCacheConcurrentEviction hammers a tightly budgeted cache from many
// goroutines: under -race this covers Get/publish/sweep interleavings,
// and every served partition must still match the reference — eviction
// may cost recomputation, never correctness.
func TestCacheConcurrentEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	r := datagen.Uniform(800, 8, 4, 31)
	sets := randomSets(rng, 8, 24)
	want := make(map[bitset.AttrSet]*Partition, len(sets))
	for _, s := range sets {
		want[s] = FromAttrs(r, s)
	}
	free := NewCache(r, Config{BlockSize: 3})
	getSets(free, sets)
	budget := free.Stats().BytesLive / 5
	if budget < 1 {
		budget = 1
	}

	c := NewCache(r, Config{BlockSize: 3, MaxBytes: budget, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(sets); i++ {
				s := sets[(g*5+i)%len(sets)]
				if got := c.Get(s); !Equal(got, want[s]) {
					t.Errorf("partition for %v differs from reference under eviction churn", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// A sweep racing the tail end of the churn may give up on entries the
	// last Gets were still touching; one final uncontended pass settles
	// the cache under its budget: each miss in it publishes, and an
	// uncontended publish sweeps until the cache fits or undoes itself.
	misses := c.Stats().Misses
	getSets(c, sets)
	if c.Stats().Misses == misses {
		t.Fatal("the settling pass missed nothing, so it never swept")
	}
	st := c.Stats()
	if st.Drops+st.Demotions == 0 {
		t.Fatalf("concurrent churn under budget %d forced no evictions: %+v", budget, st)
	}
	if st.BytesLive > budget {
		t.Fatalf("BytesLive %d exceeds budget %d at rest", st.BytesLive, budget)
	}
	// Entropies served through evicted-and-recomputed partitions stay
	// exact: spot-check one against the direct construction.
	s := sets[0]
	if got, ref := c.Get(s).Entropy(), want[s].Entropy(); math.Abs(got-ref) > 1e-12 {
		t.Fatalf("entropy after eviction churn: %v, want %v", got, ref)
	}
}
