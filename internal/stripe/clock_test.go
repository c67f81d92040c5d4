package stripe

import (
	"slices"
	"testing"
)

// clockFixture is a store of int keys with reference bits, swept until
// it holds at most max keys; evicted records the victims in order.
type clockFixture struct {
	c       Clock[int]
	ref     map[int]bool
	max     int
	evicted []int
}

func newClockFixture(max int, keys ...int) *clockFixture {
	f := &clockFixture{ref: make(map[int]bool), max: max}
	for _, k := range keys {
		f.c.Add(k)
		f.ref[k] = false
	}
	return f
}

func (f *clockFixture) sweep() {
	f.c.Sweep(
		func() bool { return len(f.c.ring) > f.max },
		func(k int) bool {
			if f.ref[k] {
				f.ref[k] = false
				return true
			}
			return false
		},
		func(k int) { f.evicted = append(f.evicted, k) },
	)
}

func TestClockReferencedKeySurvivesSweep(t *testing.T) {
	f := newClockFixture(2, 1, 2, 3)
	f.ref[1] = true
	f.sweep()
	if !slices.Equal(f.evicted, []int{2}) {
		t.Fatalf("evicted %v, want [2]: the referenced key 1 gets a second chance, unreferenced 2 goes", f.evicted)
	}
	if f.ref[1] {
		t.Fatal("sweep passed key 1 without clearing its reference bit")
	}
	// The bit is spent: with nothing touched since, key 1 is fair game.
	f.max = 0
	f.sweep()
	if len(f.c.ring) != 0 || !slices.Contains(f.evicted, 1) {
		t.Fatalf("second sweep left %d keys, evicted %v; key 1's second chance was used up", len(f.c.ring), f.evicted)
	}
}

func TestClockAllReferencedYieldsVictim(t *testing.T) {
	keys := []int{10, 20, 30, 40}
	f := newClockFixture(len(keys)-1, keys...)
	for _, k := range keys {
		f.ref[k] = true
	}
	scanned := 0
	f.c.Sweep(
		func() bool { return len(f.c.ring) > f.max },
		func(k int) bool {
			scanned++
			was := f.ref[k]
			f.ref[k] = false
			return was
		},
		func(k int) { f.evicted = append(f.evicted, k) },
	)
	if len(f.evicted) != 1 {
		t.Fatalf("evicted %v from an all-referenced ring of %d, want one victim", f.evicted, len(keys))
	}
	if scanned > 2*len(keys) {
		t.Fatalf("found the victim after %d looks, want within two laps (%d)", scanned, 2*len(keys))
	}
}

func TestClockSweepStopsAfterTwoLaps(t *testing.T) {
	// A store whose keys are re-touched as fast as the sweep clears them
	// must not spin: the sweep gives up after two laps with nothing gone.
	var c Clock[int]
	for k := 1; k <= 3; k++ {
		c.Add(k)
	}
	looks := 0
	c.Sweep(
		func() bool { return true },
		func(int) bool { looks++; return true },
		func(k int) { t.Fatalf("evicted %d, a key touched on every look", k) },
	)
	if looks != 6 {
		t.Fatalf("%d looks, want two laps of 3", looks)
	}
}

func TestClockRemove(t *testing.T) {
	f := newClockFixture(0, 1, 2, 3)
	if !f.c.Remove(2) {
		t.Fatal("Remove(2) of a present key reported false")
	}
	if f.c.Remove(2) || f.c.Remove(99) {
		t.Fatal("Remove of an absent key reported true")
	}
	if len(f.c.ring) != 2 {
		t.Fatalf("Len = %d after one removal from 3, want 2", len(f.c.ring))
	}
	f.sweep()
	slices.Sort(f.evicted)
	if !slices.Equal(f.evicted, []int{1, 3}) {
		t.Fatalf("sweep evicted %v, want the remaining [1 3]", f.evicted)
	}
}

func TestClockEmpty(t *testing.T) {
	var c Clock[int]
	if len(c.ring) != 0 || c.Remove(1) {
		t.Fatal("zero Clock is not an empty ring")
	}
	c.Sweep(
		func() bool { return true },
		func(int) bool { t.Fatal("empty ring looked at a key"); return false },
		func(int) { t.Fatal("empty ring evicted a key") },
	)
}
