package entropy

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/pli"
)

// TestSharedSingleFlight races many goroutines on the same fresh entropy
// set: exactly one must compute it (the flight owner), every other call
// must be answered from the latch or the memo.
func TestSharedSingleFlight(t *testing.T) {
	r := datagen.Uniform(3000, 6, 5, 3)
	o := NewShared(r, pli.DefaultConfig())
	attrs := bitset.Of(0, 2, 3, 5)
	want := NaiveH(r, attrs)

	const goroutines = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			if got := o.H(attrs); math.Abs(got-want) > 1e-9 {
				t.Errorf("H = %v, want %v", got, want)
			}
		}()
	}
	start.Done()
	wg.Wait()

	st := o.Stats()
	if st.HCalls != goroutines {
		t.Fatalf("HCalls = %d, want %d", st.HCalls, goroutines)
	}
	if st.HCached != goroutines-1 {
		t.Fatalf("HCached = %d, want %d (single-flight: one compute, rest wait)", st.HCached, goroutines-1)
	}
}

// TestSharedParallelDistinct computes distinct fresh sets concurrently —
// the case the single-flight design exists for: no global write lock
// serializes them — and validates every answer against the naive
// reference.
func TestSharedParallelDistinct(t *testing.T) {
	r := datagen.Uniform(2000, 8, 4, 9)
	o := NewShared(r, pli.DefaultConfig())
	sets := []bitset.AttrSet{
		bitset.Of(0, 1), bitset.Of(2, 3), bitset.Of(4, 5), bitset.Of(6, 7),
		bitset.Of(0, 3, 6), bitset.Of(1, 4, 7), bitset.Of(2, 5), bitset.Of(0, 7),
		bitset.Of(1, 2, 3, 4), bitset.Of(3, 4, 5, 6), bitset.Full(8),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(sets); i++ {
				s := sets[(g*3+i)%len(sets)]
				if got, want := o.H(s), NaiveH(r, s); math.Abs(got-want) > 1e-9 {
					t.Errorf("H(%v) = %v, want %v", s, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := o.Stats(); st.HCached == 0 {
		t.Fatalf("expected memo reuse across goroutines, got %+v", st)
	}
}

// TestSharedStripedCountersSum pins the accounting of the oracle's own
// counters under concurrent calls that go through no view: with G
// goroutines each issuing K H calls and K MI calls, Stats must report
// exactly G·K of each — no increment lost, whatever set each call reads.
func TestSharedStripedCountersSum(t *testing.T) {
	r := datagen.Uniform(500, 6, 4, 21)
	o := NewShared(r, pli.DefaultConfig())
	sets := []bitset.AttrSet{
		bitset.Empty(), bitset.Of(0), bitset.Of(0, 1), bitset.Of(2, 3),
		bitset.Of(1, 4), bitset.Of(0, 2, 4), bitset.Of(1, 3, 5), bitset.Full(6),
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				o.H(sets[(g+i)%len(sets)])
				o.MI(bitset.Of(0), bitset.Of(1), sets[(g+3*i)%len(sets)])
			}
		}(g)
	}
	wg.Wait()
	st := o.Stats()
	// Each MI issues 4 H calls of its own.
	if want := goroutines * perG * 5; st.HCalls != want {
		t.Fatalf("HCalls = %d, want %d (counters lost increments)", st.HCalls, want)
	}
	if want := goroutines * perG; st.MICalls != want {
		t.Fatalf("MICalls = %d, want %d", st.MICalls, want)
	}
	if st.HCached == 0 || st.HCached >= st.HCalls {
		t.Fatalf("HCached = %d out of %d HCalls, want 0 < cached < calls", st.HCached, st.HCalls)
	}
}

// TestSharedBudgetedOracleExact: a shared oracle over a tightly budgeted
// PLI cache still answers every entropy exactly — eviction forces
// partition recomputation, never value drift — and reports the eviction
// pressure through Stats.
func TestSharedBudgetedOracleExact(t *testing.T) {
	r := datagen.Uniform(1200, 8, 4, 27)
	cfg := pli.DefaultConfig()
	cfg.MaxBytes = 32 << 10
	o := NewShared(r, cfg)
	sets := []bitset.AttrSet{
		bitset.Of(0, 1), bitset.Of(2, 3), bitset.Of(4, 5, 6), bitset.Of(1, 7),
		bitset.Of(0, 3, 5), bitset.Of(2, 6, 7), bitset.Full(8),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(sets); i++ {
				s := sets[(g+i)%len(sets)]
				if got, want := o.H(s), NaiveH(r, s); math.Abs(got-want) > 1e-9 {
					t.Errorf("H(%v) = %v under eviction, want %v", s, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := o.Stats()
	if st.PLIStats.Drops+st.PLIStats.Demotions == 0 {
		t.Fatalf("32KiB budget forced no evictions: %+v", st.PLIStats)
	}
}
