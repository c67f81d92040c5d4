package core

import (
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/info"
	"repro/internal/stripe"
)

// keyMemo remembers, per separator key, the root candidate of the
// getFullMVDs search, its J and the entropies that J is summed from: the
// dependents' terms H(key ∪ Cᵢ), H(key) and H(Ω). Every search with the
// key starts out carrying them, and they are read once per key, never
// once per worker. All of it depends on the key, ε and the pruning
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
// mine do not depend on Workers. A settled root is immutable, so each
// miner also keeps the ones it has seen in a private table (Miner.roots)
// and reads them there — no lock, no map, no latch — coming here only for
// a key it has not seen; this stays the one place a root is computed.
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
// fills it and releases ready (held from installation, so waiting costs no
// channel); the fields are immutable afterwards.
type keyRoot struct {
	ready   sync.WaitGroup
	deps    []bitset.AttrSet // canonical dependents of the root
	terms   []float64        // terms[i] = H(key ∪ deps[i])
	hKey    float64          // H(key)
	hAll    float64          // H(Ω) = H(key ∪ every dependent)
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
		r = &keyRoot{}
		r.ready.Add(1)
		sh.m[sep] = r
	}
	sh.mu.Unlock()
	if ok {
		r.ready.Wait()
	}
	return r, !ok
}

// publish completes the owner's entry with copies of deps and terms and
// the J they give.
func (r *keyRoot) publish(deps []bitset.AttrSet, terms []float64, hKey, hAll float64) {
	r.deps = slices.Clone(deps)
	r.terms = slices.Clone(terms)
	r.hKey, r.hAll = hKey, hAll
	r.j = info.JMVDTerms(terms, hKey, hAll)
	r.ready.Done()
}

// abort withdraws the owner's entry: current waiters see it aborted, and
// a later phase of the same miner (under a freshly bound context) finds
// the key absent and repairs it afresh.
func (k *keyMemo) abort(sep bitset.AttrSet, r *keyRoot) {
	sh := k.shard(sep)
	sh.mu.Lock()
	delete(sh.m, sep)
	sh.mu.Unlock()
	r.aborted = true
	r.ready.Done()
}
