package pli

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
)

// spillWorkload drives a tightly budgeted cache through several rounds of
// the same sets and returns the cache for inspection.
func spillWorkload(t *testing.T, cfg Config, rounds int) (*Cache, []bitset.AttrSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	r := datagen.Uniform(600, 10, 4, 11)
	sets := randomSets(rng, 10, 40)
	free := NewCache(r, Config{BlockSize: cfg.BlockSize})
	getSets(free, sets)
	cfg.MaxBytes = free.Stats().BytesLive / 6
	c := NewCache(r, cfg)
	t.Cleanup(func() { c.Close() })
	for i := 0; i < rounds; i++ {
		getSets(c, sets)
	}
	return c, sets
}

// TestSpillDemotesAndPromotes is the tier's core contract: under a tight
// budget with a spill directory, evictions demote expensive partitions
// to disk, repeat requests promote them back (SpillHits), every served
// partition still matches the reference construction.
func TestSpillDemotesAndPromotes(t *testing.T) {
	c, sets := spillWorkload(t, Config{BlockSize: 4, SpillDir: t.TempDir()}, 3)
	st := c.Stats()
	if st.Demotions == 0 {
		t.Fatalf("tight budget with a spill dir demoted nothing: %+v", st)
	}
	if st.SpillHits == 0 {
		t.Fatalf("repeat rounds promoted nothing from spill: %+v", st)
	}
	if st.SpillBytes <= 0 {
		t.Fatalf("SpillBytes = %d with %d demotions", st.SpillBytes, st.Demotions)
	}
	r := c.rel
	for _, s := range sets {
		if got, want := c.Get(s), FromAttrs(r, s); !Equal(got, want) {
			t.Fatalf("partition for %v differs from reference after spill churn", s)
		}
	}
}

// TestSpillOffStatsUnchanged pins the spill-off behavior: without a
// SpillDir every eviction is a drop and the spill counters stay zero.
func TestSpillOffStatsUnchanged(t *testing.T) {
	c, _ := spillWorkload(t, Config{BlockSize: 4}, 2)
	st := c.Stats()
	if st.Drops == 0 {
		t.Fatalf("tight budget forced no evictions: %+v", st)
	}
	if st.Demotions != 0 || st.SpillHits != 0 || st.SpillBytes != 0 || st.SpillReadNS != 0 {
		t.Fatalf("spill counters moved without a spill dir: %+v", st)
	}
}

// TestSpillWarmRestart closes a spilled-into cache and builds a fresh one
// over the same directory and relation: the new cache must promote from
// the segments the old one wrote (the maimond warm-restart path).
func TestSpillWarmRestart(t *testing.T) {
	dir := t.TempDir()
	c, sets := spillWorkload(t, Config{BlockSize: 4, SpillDir: dir}, 3)
	if c.Stats().Demotions == 0 {
		t.Fatalf("no demotions to restart from: %+v", c.Stats())
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := c.rel
	c2 := NewCache(r, Config{BlockSize: 4, MaxBytes: c.cfg.MaxBytes, SpillDir: dir})
	defer c2.Close()
	getSets(c2, sets)
	st := c2.Stats()
	if st.SpillHits == 0 {
		t.Fatalf("restarted cache promoted nothing from the previous run's spill: %+v", st)
	}
	for _, s := range sets {
		if got, want := c2.Get(s), FromAttrs(r, s); !Equal(got, want) {
			t.Fatalf("partition for %v differs from reference after warm restart", s)
		}
	}
}

// TestSpillShapeGuard rebuilds a cache over a *different* relation but
// the same spill directory: the stale segments must be discarded (no
// promotions) and mining must still serve correct partitions.
func TestSpillShapeGuard(t *testing.T) {
	dir := t.TempDir()
	c, _ := spillWorkload(t, Config{BlockSize: 4, SpillDir: dir}, 2)
	if c.Stats().Demotions == 0 {
		t.Fatalf("no demotions to poison with: %+v", c.Stats())
	}
	c.Close()

	other := datagen.Uniform(500, 10, 5, 77)
	c2 := NewCache(other, Config{BlockSize: 4, MaxBytes: 1 << 16, SpillDir: dir})
	defer c2.Close()
	rng := rand.New(rand.NewSource(48))
	sets := randomSets(rng, 10, 20)
	getSets(c2, sets)
	if hits := c2.Stats().SpillHits; hits != 0 {
		// Keys could collide across relations; the shape stamp must have
		// thrown the old segments away before any Get ran.
		t.Fatalf("%d promotions from a different relation's spill directory", hits)
	}
	for _, s := range sets {
		if got, want := c2.Get(s), FromAttrs(other, s); !Equal(got, want) {
			t.Fatalf("partition for %v differs from reference under a mismatched spill dir", s)
		}
	}
}

// TestSpillConcurrent hammers a spilling cache from many goroutines
// under -race: demote/promote must not tear partitions — every serve
// matches the reference.
func TestSpillConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
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
	c := NewCache(r, Config{BlockSize: 3, MaxBytes: budget, Shards: 4, SpillDir: t.TempDir()})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(sets); i++ {
				s := sets[(g*5+i)%len(sets)]
				if got := c.Get(s); !Equal(got, want[s]) {
					t.Errorf("partition for %v differs from reference under spill churn", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Drops+st.Demotions == 0 {
		t.Fatalf("concurrent churn under budget %d evicted nothing: %+v", budget, st)
	}
}
