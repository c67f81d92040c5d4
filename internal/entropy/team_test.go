package entropy

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/pli"
)

// starvedOracle is an oracle whose hashed memo keeps no entry: every
// published entropy is evicted at once, so only the views remember.
func starvedOracle(t *testing.T) *Oracle {
	t.Helper()
	o := NewShared(datagen.Uniform(300, 6, 4, 17), pli.Config{Shards: 2})
	o.SetMemoBudget(1)
	if o.dense != nil {
		t.Fatal("a 1-byte budget left the memo dense")
	}
	return o
}

func fresh(o *Oracle) int {
	st := o.Stats()
	return st.HCalls - st.HCached
}

// TestTeamCountsEachSetOnce: two views of one team over a memo that keeps
// nothing. A counts s; B's read is served from A's view, and so is an
// owner's claim on s that skips B's own lookups (hWith): one fresh H.
func TestTeamCountsEachSetOnce(t *testing.T) {
	o := starvedOracle(t)
	team := o.Team(2)
	a, b := team.Local(), team.Local()
	s := bitset.Of(0, 2, 5)
	want := NaiveH(o.Relation(), s)

	if got := a.H(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("A: H = %v, want %v", got, want)
	}
	if got := b.H(s); got != a.H(s) {
		t.Fatalf("B read %v, A counted %v", got, a.H(s))
	}
	if got, _ := o.hWith(b, s); got != a.H(s) {
		t.Fatalf("B's claim on s read %v, A counted %v", got, a.H(s))
	}
	a.Release()
	b.Release()
	if st := o.Stats(); st.MemoBytes != 0 || st.MemoEvictions != 1 {
		t.Fatalf("memo keeps %d bytes after %d evictions, want 0 after 1", st.MemoBytes, st.MemoEvictions)
	}
	if n := fresh(o); n != 1 {
		t.Fatalf("%d fresh H for one set read by two views of a team, want 1", n)
	}

	// Two views without a team count it twice: the budget evicted it.
	c, d := o.Local(), o.Local()
	c.H(s)
	d.H(s)
	c.Release()
	d.Release()
	if n := fresh(o); n != 3 {
		t.Fatalf("%d fresh H after two unrelated views read s, want 3", n)
	}
}

// TestReleasedViewAnswersPeers: a view its worker has released still
// serves the other views of its team.
func TestReleasedViewAnswersPeers(t *testing.T) {
	o := starvedOracle(t)
	team := o.Team(2)
	a := team.Local()
	s := bitset.Of(1, 3, 4)
	h := a.H(s)
	a.Release()

	b := team.Local()
	if got := b.H(s); got != h {
		t.Fatalf("B read %v from a released peer, A counted %v", got, h)
	}
	b.Release()
	if n := fresh(o); n != 1 {
		t.Fatalf("%d fresh H, want 1: the released view did not answer", n)
	}
}

// TestViewGrowsUnderPeerReads: a writer fills its view to the cap, 2^16
// entries and ten growths of its slot array, while three peers of its
// team probe it. Every hit must return exactly the value written with its
// key — no torn or zero word — and once the writer is done every key must
// be found by every peer. Run it under -race.
func TestViewGrowsUnderPeerReads(t *testing.T) {
	o := starvedOracle(t)
	team := o.Team(4)
	w := team.Local()
	defer w.Release()
	value := func(s bitset.AttrSet) float64 { return float64(s)*0.5 + 1 }

	var done sync.WaitGroup
	var written atomic.Bool
	for p := 0; p < 3; p++ {
		peer := team.Local()
		done.Add(1)
		go func() {
			defer done.Done()
			defer peer.Release()
			check := func(s bitset.AttrSet) bool {
				h, ok := peer.peerGet(s)
				if ok && h != value(s) {
					t.Errorf("peer read %v for set %d, the writer wrote %v", h, s, value(s))
				}
				return ok
			}
			for s := bitset.AttrSet(1); !written.Load(); s = s%localMemoCap + 1 {
				check(s)
			}
			for s := bitset.AttrSet(1); s <= localMemoCap; s++ {
				if !check(s) {
					t.Errorf("set %d missing from the finished view", s)
					return
				}
			}
		}()
	}
	for s := bitset.AttrSet(1); s <= localMemoCap; s++ {
		w.keep(s, value(s))
	}
	w.keep(localMemoCap+1, 0) // past the cap: not kept
	written.Store(true)
	done.Wait()
	if n := w.memo.Len(); n != localMemoCap {
		t.Fatalf("view holds %d entries, want the cap %d", n, localMemoCap)
	}
}
