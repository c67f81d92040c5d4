package entropy

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pli"
)

// TestWarmOracleAllocations gates the oracle's hot paths at zero
// allocations once warm — the contract that lets the mining loops (and
// the telemetry counters now threaded through them) evaluate H, MI, and
// cached partition entropies inside tight searches without touching the
// heap. A regression here means instrumentation (or anything else) leaked
// allocation onto the per-candidate path.
func TestWarmOracleAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(rng, 300, 8, 4)
	ab, _ := r.ParseAttrs("AB")
	cd, _ := r.ParseAttrs("CD")
	abcd := ab.Union(cd)

	t.Run("oracle H+MI", func(t *testing.T) {
		o := New(r)
		o.MI(ab, cd, bitset.Empty()) // warm every component entropy
		if avg := testing.AllocsPerRun(100, func() { o.H(abcd) }); avg != 0 {
			t.Errorf("warm oracle H allocates %v times per run, want 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { o.MI(ab, cd, bitset.Empty()) }); avg != 0 {
			t.Errorf("warm oracle MI allocates %v times per run, want 0", avg)
		}
	})

	t.Run("shared Local H+MI", func(t *testing.T) {
		o := NewShared(r, pli.Config{})
		l := o.Local()
		defer l.Release()
		l.MI(ab, cd, bitset.Empty())
		if avg := testing.AllocsPerRun(100, func() { l.H(abcd) }); avg != 0 {
			t.Errorf("warm shared Local H allocates %v times per run, want 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { l.MI(ab, cd, bitset.Empty()) }); avg != 0 {
			t.Errorf("warm shared Local MI allocates %v times per run, want 0", avg)
		}
	})

	// The cache-hit entry into the PLI layer — the single-flight compute's
	// fast path — must also stay allocation-free with the intersection
	// byte accounting in place.
	t.Run("warm EntropyWith", func(t *testing.T) {
		c := pli.NewCache(r, pli.Config{})
		a := pli.GetArena()
		defer pli.PutArena(a)
		c.EntropyWith(a, abcd)
		if avg := testing.AllocsPerRun(100, func() { c.EntropyWith(a, abcd) }); avg != 0 {
			t.Errorf("warm EntropyWith allocates %v times per run, want 0", avg)
		}
	})
}
