package stripe

// Table is a single-goroutine map from a 64-bit key: open addressing
// with linear probing over a power-of-two slot array kept at most half
// full, indexed by Hash. It is the private front a mining worker reads
// a shared Store through, where a Go map probe would be a fifth of the
// search's profile. Nothing is ever deleted. A vacant slot has key 0, so
// the zero key is kept beside the slots. The zero value is empty.
type Table[K ~uint64, V any] struct {
	slots   []tableSlot[K, V]
	n       int
	zero    V
	hasZero bool
}

type tableSlot[K ~uint64, V any] struct {
	key K
	v   V
}

// Len returns the number of keys in t.
func (t *Table[K, V]) Len() int { return t.n }

// Get returns k's value; ok is false when k is absent.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	if k == 0 {
		return t.zero, t.hasZero
	}
	if t.slots == nil {
		return v, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := Hash(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.key {
		case k:
			return s.v, true
		case 0:
			return v, false
		}
	}
}

// Put records k → v; k must be absent.
func (t *Table[K, V]) Put(k K, v V) {
	t.n++
	if k == 0 {
		t.zero, t.hasZero = v, true
		return
	}
	if 2*t.n > len(t.slots) {
		old := t.slots
		t.slots = make([]tableSlot[K, V], max(64, 2*len(old)))
		for _, s := range old {
			if s.key != 0 {
				t.place(s)
			}
		}
	}
	t.place(tableSlot[K, V]{key: k, v: v})
}

func (t *Table[K, V]) place(s tableSlot[K, V]) {
	mask := uint64(len(t.slots) - 1)
	i := Hash(uint64(s.key)) & mask
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}
