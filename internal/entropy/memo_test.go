package entropy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/pli"
)

// distinctSets returns count distinct multi-attribute sets over n attrs.
func distinctSets(rng *rand.Rand, n, count int) []bitset.AttrSet {
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

// TestMemoBudgetEviction drives a budgeted shared memo through far more
// distinct sets than the budget can hold and checks the contract: the
// accounted residency never rests above the budget, evictions are
// reported, and every entropy re-read after eviction is still exact —
// the budget changes cost, never results.
func TestMemoBudgetEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	r := datagen.Uniform(400, 8, 4, 33)
	o := NewShared(r, pli.Config{Shards: 1})
	const budget = 10 * memoEntryBytes
	o.SetMemoBudget(budget)

	sets := distinctSets(rng, 8, 40)
	want := make(map[bitset.AttrSet]float64, len(sets))
	for _, s := range sets {
		want[s] = NaiveH(r, s)
	}
	for round := 0; round < 2; round++ {
		for _, s := range sets {
			if got := o.H(s); math.Abs(got-want[s]) > 1e-9 {
				t.Fatalf("round %d: H(%v) = %v under memo eviction, want %v", round, s, got, want[s])
			}
			if mb := o.Stats().MemoBytes; mb > budget {
				t.Fatalf("round %d: MemoBytes %d exceeds budget %d at rest", round, mb, budget)
			}
		}
	}
	st := o.Stats()
	if st.MemoEvictions == 0 {
		t.Fatalf("%d sets through a %d-entry memo budget forced no evictions: %+v",
			len(sets), budget/memoEntryBytes, st)
	}
	if st.MemoBytes == 0 {
		t.Fatalf("memo emptied completely: %+v", st)
	}
}

// TestMemoBudgetBelowOneEntryPerShard: a budget too small to give every
// shard one entry still bounds the memo. It is sliced in whole entries —
// 100 B is two 48 B entries over eight shards, so six shards hold none —
// and the memo never rests above it, while every entropy stays exact.
func TestMemoBudgetBelowOneEntryPerShard(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	r := datagen.Uniform(300, 8, 4, 43)
	o := NewShared(r, pli.Config{Shards: 8})
	const budget = 100
	o.SetMemoBudget(budget)

	for round := 0; round < 2; round++ {
		for _, s := range distinctSets(rng, 8, 40) {
			if got, want := o.H(s), NaiveH(r, s); got != want {
				t.Fatalf("round %d: H(%v) = %v, want %v", round, s, got, want)
			}
			if mb := o.Stats().MemoBytes; mb > budget {
				t.Fatalf("round %d: MemoBytes %d exceeds budget %d at rest", round, mb, budget)
			}
		}
	}
	if st := o.Stats(); st.MemoEvictions == 0 {
		t.Fatalf("80 reads through a two-entry memo forced no evictions: %+v", st)
	}
}

// TestMemoBudgetKeepsHotEntry: under sustained insert pressure a
// repeatedly re-read entry must survive the sweeps — each hit sets its
// reference bit, so the clock gives it another lap while cold entries go.
func TestMemoBudgetKeepsHotEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	r := datagen.Uniform(300, 8, 4, 35)
	o := NewShared(r, pli.Config{Shards: 1})
	o.SetMemoBudget(8 * memoEntryBytes)

	// Every touch re-arms the hot entry's reference bit, so a sweep that
	// clears it moves on to a cold entry before coming round again.
	hot := bitset.Full(8)
	o.H(hot)
	base := o.Stats()
	for _, s := range distinctSets(rng, 8, 60) {
		if s == hot {
			continue
		}
		o.H(s)
		o.H(hot) // touch: keep the hot entry's second chance armed
	}
	st := o.Stats()
	if st.MemoEvictions == 0 {
		t.Fatalf("churn forced no evictions: %+v", st)
	}
	// The first sweep, over a ring whose entries all still carry their
	// admission bit, may take the hot set once; every sweep after that
	// finds a cold entry first, so the hot set must end resident.
	hotReads := st.HCached - base.HCached
	sh := &o.shards[0]
	sh.mu.Lock()
	_, resident := sh.memo[hot]
	sh.mu.Unlock()
	if !resident {
		t.Fatalf("hot entry evicted despite %d touches (evictions %d)", hotReads, st.MemoEvictions)
	}
}

// TestLocalReadThroughCounters pins the deferred accounting of a Local's
// warm reads, on the dense memo (6 attributes) and on the hashed one with
// the view's private memo in front (17, past bitset.DenseMaxAttrs): repeat reads through a Local are counted
// privately — the shared shard counters must not move until Release
// flushes them — and after the flush the totals match what a serial mine
// would have counted for the same reads.
func TestLocalReadThroughCounters(t *testing.T) {
	for _, path := range []struct {
		name string
		cols int
	}{{"dense", 6}, {"hashed", bitset.DenseMaxAttrs + 1}} {
		t.Run(path.name, func(t *testing.T) { testLocalReadThroughCounters(t, path.cols) })
	}
}

func testLocalReadThroughCounters(t *testing.T, cols int) {
	r := datagen.Uniform(300, cols, 4, 39)
	o := NewShared(r, pli.Config{Shards: 1})
	if dense := o.dense != nil; dense != (cols <= bitset.DenseMaxAttrs) {
		t.Fatalf("%d attributes: dense = %v", cols, dense)
	}
	s := bitset.Of(0, 2, 4)
	want := NaiveH(r, s)

	l := o.Local()
	if got := l.H(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("H = %v, want %v", got, want)
	}
	const repeats = 5
	for i := 0; i < repeats; i++ {
		if got := l.H(s); got != want && math.Abs(got-want) > 1e-9 {
			t.Fatalf("repeat read drifted: %v", got)
		}
	}
	mid := o.Stats()
	if mid.HCalls != 1 || mid.HCached != 0 {
		t.Fatalf("local repeat reads leaked to the shards before Release: HCalls=%d HCached=%d, want 1/0",
			mid.HCalls, mid.HCached)
	}
	l.Release()
	st := o.Stats()
	if st.HCalls != 1+repeats || st.HCached != repeats {
		t.Fatalf("flushed totals HCalls=%d HCached=%d, want %d/%d",
			st.HCalls, st.HCached, 1+repeats, repeats)
	}
}

// TestLocalMatchesOracleCounts replays one read sequence — every subset of
// eleven attributes, enough to grow the view's table several times, the
// empty set included, then MI and MICarried over them — through a fresh
// oracle directly and through a Local view of another, and requires the
// same values bit for bit and, after Release, the same HCalls, HCached and
// MICalls. The empty set is a call that is never cached on both paths. It
// runs over 11 attributes, where the memo is dense, and over 17, where it
// is hashed and the view keeps its own.
func TestLocalMatchesOracleCounts(t *testing.T) {
	for _, path := range []struct {
		name string
		cols int
	}{{"dense", 11}, {"hashed", bitset.DenseMaxAttrs + 1}} {
		t.Run(path.name, func(t *testing.T) { testLocalMatchesOracleCounts(t, path.cols) })
	}
}

func testLocalMatchesOracleCounts(t *testing.T, cols int) {
	r := datagen.Uniform(200, cols, 3, 77)
	type source interface {
		H(bitset.AttrSet) float64
		MI(y, z, x bitset.AttrSet) float64
		MICarried(hxy, hxz, hx float64, y, z, x bitset.AttrSet) (mi, hxyz float64)
	}
	replay := func(src source) []float64 {
		var out []float64
		for round := 0; round < 2; round++ {
			bitset.Full(11).Subsets(func(s bitset.AttrSet) bool {
				out = append(out, src.H(s))
				return true
			})
		}
		for _, x := range []bitset.AttrSet{bitset.Empty(), bitset.Of(3), bitset.Of(0, 9)} {
			y, z := bitset.Of(1, 2), bitset.Of(4, 10)
			mi := src.MI(y, z, x)
			carried, hxyz := src.MICarried(src.H(x.Union(y)), src.H(x.Union(z)), src.H(x), y, z, x)
			if mi != carried {
				t.Fatalf("MICarried(%v;%v|%v) = %v, MI = %v", y, z, x, carried, mi)
			}
			if want := src.H(x.Union(y).Union(z)); hxyz != want {
				t.Fatalf("MICarried(%v;%v|%v) returned H(xyz) = %v, H = %v", y, z, x, hxyz, want)
			}
			out = append(out, mi)
		}
		return out
	}
	direct := NewShared(r, pli.Config{Shards: 4})
	want := replay(direct)

	viewed := NewShared(r, pli.Config{Shards: 4})
	if dense := viewed.dense != nil; dense != (cols <= bitset.DenseMaxAttrs) {
		t.Fatalf("%d attributes: dense = %v", cols, dense)
	}
	l := viewed.Local()
	got := replay(l)
	if dense := viewed.dense != nil; dense == (l.memo.slots != nil) {
		t.Fatalf("dense memo %v, the view's private memo holds %d entries", dense, l.memo.n)
	}
	l.Release()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read %d: view %v, oracle %v", i, got[i], want[i])
		}
	}
	ws, gs := direct.Stats(), viewed.Stats()
	if gs.HCalls != ws.HCalls || gs.HCached != ws.HCached || gs.MICalls != ws.MICalls {
		t.Fatalf("view counted H %d/%d cached, MI %d; oracle H %d/%d cached, MI %d",
			gs.HCalls, gs.HCached, gs.MICalls, ws.HCalls, ws.HCached, ws.MICalls)
	}
	if uncached := ws.HCalls - ws.HCached; uncached <= 1<<11 {
		t.Fatalf("%d uncached calls: the empty set's repeat reads must stay uncached", uncached)
	}
}

// TestLocalReadThroughZeroAlloc gates the worker-local repeat read at
// zero allocations: once a Local has seen a set, re-reading it is a
// private table probe — no shard lock, no allocation — even when an
// entropy budget has since evicted the set from the shared shards.
func TestLocalReadThroughZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	r := datagen.Uniform(300, 8, 4, 41)
	o := NewShared(r, pli.Config{Shards: 1})
	o.SetMemoBudget(4 * memoEntryBytes)

	l := o.Local()
	defer l.Release()
	s := bitset.Of(0, 3, 5)
	want := l.H(s) // compute once; populates the local memo
	// Churn the shared memo so s is (very likely) evicted from the shards;
	// the local view must keep serving it regardless.
	for _, other := range distinctSets(rng, 8, 30) {
		o.H(other)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if got := l.H(s); got != want {
			t.Fatalf("local repeat read drifted: %v != %v", got, want)
		}
	}); avg != 0 {
		t.Errorf("warm local read-through allocates %v times per run, want 0", avg)
	}
}
