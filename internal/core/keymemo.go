package core

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/stripe"
)

// keyMemo remembers, per separator key, the root candidate of the
// getFullMVDs search and its J. Both depend on the key, ε and the pruning
// setting only — never on the attribute pair a search is run for: the
// forced-merge closure of the all-singletons MVD (Fig. 16) merges the same
// pairs in the same order whatever (a,b) is, and the pair merely decides
// whether the result is usable (a and b must have stayed apart). A mine
// asks about the same key for many pairs (13 columns at ε = 0.1: 86k
// searches over 5.9k keys), so the root is repaired and scored once and
// every later search starts from the stored value.
//
// The memo lives as long as its Miner — one mine, one ε, one pruning
// setting — and is shared by the miner's forked workers. It is striped and
// single-flight exactly like the shared entropy memo: the first search to
// ask for a key computes it while the others wait on its latch, so each
// key is repaired once at any fan-out and the entropy-level counts of a
// mine do not depend on Workers.
type keyMemo struct {
	shards []keyShard
	mask   uint64
}

type keyShard struct {
	mu sync.Mutex
	m  map[bitset.AttrSet]*keyRoot
	_  [64]byte // keep neighboring shards' locks off one cache line
}

// keyRoot is one key's root candidate. The goroutine that installed it
// fills it and closes done; the fields are immutable afterwards.
type keyRoot struct {
	done    chan struct{}
	deps    []bitset.AttrSet // canonical dependents of the root
	j       float64          // J of the root
	aborted bool             // the mine was stopped mid-repair: no root
}

func newKeyMemo() *keyMemo {
	n := stripe.Count(0)
	k := &keyMemo{shards: make([]keyShard, n), mask: uint64(n - 1)}
	for i := range k.shards {
		k.shards[i].m = make(map[bitset.AttrSet]*keyRoot)
	}
	return k
}

func (k *keyMemo) shard(sep bitset.AttrSet) *keyShard {
	return &k.shards[stripe.Hash(uint64(sep))&k.mask]
}

// acquire returns sep's root. owner is true for the one caller that must
// compute it and then publish or abort; everyone else gets it complete
// (having waited for the owner if need be).
func (k *keyMemo) acquire(sep bitset.AttrSet) (r *keyRoot, owner bool) {
	sh := k.shard(sep)
	sh.mu.Lock()
	r, ok := sh.m[sep]
	if !ok {
		r = &keyRoot{done: make(chan struct{})}
		sh.m[sep] = r
	}
	sh.mu.Unlock()
	if ok {
		<-r.done
	}
	return r, !ok
}

// publish completes the owner's entry with a copy of deps.
func (r *keyRoot) publish(deps []bitset.AttrSet, j float64) {
	r.deps = append([]bitset.AttrSet(nil), deps...)
	r.j = j
	close(r.done)
}

// abort withdraws the owner's entry: current waiters see it aborted, and
// a later phase of the same miner (whose deadline is re-armed) finds the
// key absent and repairs it afresh.
func (k *keyMemo) abort(sep bitset.AttrSet, r *keyRoot) {
	sh := k.shard(sep)
	sh.mu.Lock()
	delete(sh.m, sep)
	sh.mu.Unlock()
	r.aborted = true
	close(r.done)
}
