package stripe

import "sync/atomic"

// Words is a single-writer map from a nonzero 64-bit key to a 64-bit
// word that any number of other goroutines may read while its writer
// inserts, without a lock: the probe table of Table with atomic key and
// value words, published through an atomic pointer. It is a mining
// worker's entropy view, which the other workers of its phase read.
//
// Put stores a slot's value before its key, so a reader that finds the
// key reads the value written with it, never a torn or zero one. When
// the table grows, the writer fills a new slot array and then publishes
// it; a reader still probing the old array sees the entries the old
// array held, and misses only keys put since. Nothing is ever deleted.
// The zero value is empty.
type Words struct {
	slots atomic.Pointer[wordSlots]
	n     int // the writer's own count of keys
}

type wordSlots struct {
	at   []wordSlot
	mask uint64
}

type wordSlot struct {
	key, val atomic.Uint64
}

// Len returns the number of keys in t. Only the writer may call it.
func (t *Words) Len() int { return t.n }

// Get returns k's word; ok is false when k is absent. Any goroutine may
// call it, concurrently with Put.
func (t *Words) Get(k uint64) (v uint64, ok bool) {
	s := t.slots.Load()
	if s == nil {
		return 0, false
	}
	for i := Hash(k) & s.mask; ; i = (i + 1) & s.mask {
		switch s.at[i].key.Load() {
		case k:
			return s.at[i].val.Load(), true
		case 0:
			return 0, false
		}
	}
}

// Put records k → v; k must be nonzero and absent. Only the writer may
// call it.
func (t *Words) Put(k, v uint64) {
	s := t.slots.Load()
	t.n++
	if s == nil || 2*t.n > len(s.at) {
		grown := newWordSlots(max(64, 2*t.n))
		if s != nil {
			for i := range s.at {
				if key := s.at[i].key.Load(); key != 0 {
					grown.place(key, s.at[i].val.Load())
				}
			}
		}
		t.slots.Store(grown)
		s = grown
	}
	s.place(k, v)
}

func newWordSlots(n int) *wordSlots {
	size := 1
	for size < n {
		size <<= 1
	}
	return &wordSlots{at: make([]wordSlot, size), mask: uint64(size - 1)}
}

// place stores k → v in the first vacant slot of k's probe run: the
// value first, then the key that makes it visible.
func (s *wordSlots) place(k, v uint64) {
	i := Hash(k) & s.mask
	for s.at[i].key.Load() != 0 {
		i = (i + 1) & s.mask
	}
	s.at[i].val.Store(v)
	s.at[i].key.Store(k)
}
