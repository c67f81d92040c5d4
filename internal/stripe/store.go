package stripe

import (
	"sync"
	"sync/atomic"
)

// Store is the sharded, single-flight, byte-budgeted map under every
// memo of the repository: the PLI partition cache, the hashed entropy
// memo and the hashed key memo. Keys are 64-bit (attribute sets) and
// hash to one of a power-of-two count of shards, each a map and a lock.
//
// A key is computed once: the first Acquire of an absent key makes its
// caller the owner, and every other Acquire or Get of the key waits for
// the owner to Publish (the value is kept) or Abort (it is not). Values
// are kept inline in the shard's map, so an entry costs its key, its
// value and a reference bit, no heap object of its own.
//
// A positive budget bounds the bytes of the published, unpinned values,
// priced by size. A value priced above the whole budget can never fit: its
// Publish hands it to the key's waiters and retires it at once, and
// nothing else is evicted for it. A Publish that takes the store over its
// budget runs the Clock of the shard that grew, then of the others in
// turn, until the store fits; retire is called for each entry that goes.
// If the sweeps cannot make room (every other entry pinned, in flight or
// touched again during the sweep), the insert undoes itself: it is
// retired too. So the bytes at rest never exceed the budget. Pinned
// entries are never evicted and never charged; with no budget nothing is
// evicted and no reference bits are kept.
type Store[K ~uint64, V any] struct {
	shards []storeShard[K, V]
	mask   uint64
	budget int64
	size   func(V) int64
	retire func(K, V)

	entries atomic.Int64 // published entries, pinned ones included
	bytes   atomic.Int64 // priced bytes of the unpinned entries
	pinned  atomic.Int64 // priced bytes of the pinned entries
}

type storeShard[K ~uint64, V any] struct {
	mu      sync.Mutex
	m       map[K]slot[V]
	pending map[K]*pending[V]
	clock   Clock[K] // the evictable entries; empty without a budget

	_ [64]byte // keep neighboring shards' locks off one cache line
}

// slot is one published value and its clock reference bit.
type slot[V any] struct {
	v   V
	ref bool
}

// pending is a key whose owner is computing it; done is released once v
// holds what the owner handed over.
type pending[V any] struct {
	done sync.WaitGroup
	v    V
}

// NewStore returns an empty store of Count(shards) shards. budget <= 0
// means unbounded. size prices a value in bytes (nil prices every value
// at 0). retire, when non-nil, is called for every evicted entry and
// every value that can never fit, under its shard's lock: it must not call
// back into the store.
func NewStore[K ~uint64, V any](shards int, budget int64, size func(V) int64, retire func(K, V)) *Store[K, V] {
	n := Count(shards)
	s := &Store[K, V]{shards: make([]storeShard[K, V], n), mask: uint64(n - 1), budget: budget, size: size, retire: retire}
	for i := range s.shards {
		s.shards[i].m = make(map[K]slot[V])
		s.shards[i].pending = make(map[K]*pending[V])
	}
	return s
}

// Shards returns the number of shards.
func (s *Store[K, V]) Shards() int { return len(s.shards) }

// Len returns the number of published entries, pinned ones included.
func (s *Store[K, V]) Len() int { return int(s.entries.Load()) }

// Bytes returns the priced bytes of the unpinned entries: what the
// budget bounds.
func (s *Store[K, V]) Bytes() int64 { return s.bytes.Load() }

// Budget returns the byte budget; <= 0 means unbounded.
func (s *Store[K, V]) Budget() int64 { return s.budget }

// PinnedBytes returns the priced bytes of the pinned entries.
func (s *Store[K, V]) PinnedBytes() int64 { return s.pinned.Load() }

func (s *Store[K, V]) shardOf(k K) *storeShard[K, V] {
	return &s.shards[Hash(uint64(k))&s.mask]
}

func (s *Store[K, V]) price(v V) int64 {
	if s.size == nil {
		return 0
	}
	return s.size(v)
}

// Get returns k's value, waiting for its owner if k is in flight, and
// sets its reference bit; ok is false when k is neither stored nor in
// flight. A waiter gets whatever the owner handed over, published or
// not.
func (s *Store[K, V]) Get(k K) (v V, ok bool) { return s.find(k, false) }

// Acquire returns k's value as Get does, or, when k is neither stored
// nor in flight, makes the caller k's owner: owner is true, and the
// caller must end its claim with Publish or Abort.
func (s *Store[K, V]) Acquire(k K) (v V, owner bool) {
	v, found := s.find(k, true)
	return v, !found
}

// find is Get, and with claim also the claim of an absent key.
func (s *Store[K, V]) find(k K, claim bool) (v V, found bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if sl, ok := sh.m[k]; ok {
		s.touch(sh, k, sl)
		sh.mu.Unlock()
		return sl.v, true
	}
	f := sh.pending[k]
	if f == nil && claim {
		f = &pending[V]{}
		f.done.Add(1)
		sh.pending[k] = f
		sh.mu.Unlock()
		return v, false
	}
	sh.mu.Unlock()
	if f == nil {
		return v, false
	}
	f.done.Wait()
	return f.v, true
}

// touch sets a hit's reference bit; the caller holds sh.mu.
func (s *Store[K, V]) touch(sh *storeShard[K, V], k K, sl slot[V]) {
	if s.budget > 0 && !sl.ref {
		sh.m[k] = slot[V]{v: sl.v, ref: true}
	}
}

// Publish stores v under k, hands it to k's waiters and ends the
// owner's claim; a key nobody acquired may be published too, unless it
// is stored already. A pinned entry is kept for the life of the store
// outside the budget; any other enters referenced and may take the store
// over budget, which it then sweeps, unless it can never fit, which it
// retires (see Store).
func (s *Store[K, V]) Publish(k K, v V, pinned bool) {
	sh := s.shardOf(k)
	n := s.price(v)
	evictable := !pinned && s.budget > 0
	fits := !evictable || n <= s.budget
	if fits {
		// Counted before the entry can be evicted, so the counts never
		// dip below what is stored.
		s.entries.Add(1)
		if pinned {
			s.pinned.Add(n)
		} else {
			s.bytes.Add(n)
		}
	}
	sh.mu.Lock()
	f := sh.pending[k]
	delete(sh.pending, k)
	if fits {
		sh.m[k] = slot[V]{v: v, ref: evictable}
		if evictable {
			sh.clock.Add(k)
		}
	} else if s.retire != nil {
		s.retire(k, v)
	}
	sh.mu.Unlock()
	if f != nil {
		f.v = v
		f.done.Done()
	}
	if fits && evictable && s.over() {
		s.sweep(int(Hash(uint64(k)) & s.mask))
		if s.over() {
			s.drop(sh, k)
		}
	}
}

// Abort ends the owner's claim without storing anything: k's waiters
// get v — a value the owner keeps elsewhere, or a mark that the work was
// abandoned — and k is absent again, so the next Acquire owns it.
func (s *Store[K, V]) Abort(k K, v V) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	f := sh.pending[k]
	delete(sh.pending, k)
	sh.mu.Unlock()
	f.v = v
	f.done.Done()
}

// Range calls f for every published entry, one shard at a time under
// its lock; f must not call back into the store.
func (s *Store[K, V]) Range(f func(K, V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, sl := range sh.m {
			f(k, sl.v)
		}
		sh.mu.Unlock()
	}
}

func (s *Store[K, V]) over() bool { return s.budget > 0 && s.bytes.Load() > s.budget }

// sweep runs the clocks, from shard first round the others, each under
// its own lock, until the store fits its budget.
func (s *Store[K, V]) sweep(first int) {
	for i := range s.shards {
		if !s.over() {
			return
		}
		sh := &s.shards[(first+i)&int(s.mask)]
		sh.mu.Lock()
		sh.clock.Sweep(s.over,
			func(k K) bool {
				sl := sh.m[k]
				if sl.ref {
					sh.m[k] = slot[V]{v: sl.v}
				}
				return sl.ref
			},
			func(k K) { s.evict(sh, k) })
		sh.mu.Unlock()
	}
}

// drop undoes a Publish that could not fit, unless a sweep has evicted
// the entry already: an entry is in its shard's clock exactly while it
// is stored.
func (s *Store[K, V]) drop(sh *storeShard[K, V], k K) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.clock.Remove(k) {
		s.evict(sh, k)
	}
}

// evict removes an entry that has left its shard's clock and retires
// it; the caller holds sh.mu.
func (s *Store[K, V]) evict(sh *storeShard[K, V], k K) {
	sl := sh.m[k]
	delete(sh.m, k)
	s.entries.Add(-1)
	s.bytes.Add(-s.price(sl.v))
	if s.retire != nil {
		s.retire(k, sl.v)
	}
}
