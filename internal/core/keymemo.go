package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/info"
	"repro/internal/mvd"
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
// whether the result is usable (a and b must have stayed apart). So the
// root is repaired and scored once per key, and every later search starts
// from the stored value.
//
// The search itself depends on the pair only through the root dependents
// of a and b: every candidate coarsens the root, a neighbor is skipped or
// pruned exactly when it unites a's and b's root dependents, and the walk
// is otherwise the same. So the root also carries one slot per unordered
// pair of its dependents and per stage — the SeparatorHolds verdict (K = 1)
// and the GetFullMVDs(K = 0) list — and each is searched once per mine and
// read by every later pair whose a and b fall in the same two dependents.
// On the bench's 13-column relation at ε = 0.1 that halves the candidates
// a mine visits (142,572 → 67,551); TestSearchOncePerDependentPair pins
// one search per key and dependent pair.
//
// The memo lives as long as its Miner — one mine, one ε, one pruning
// setting — and is shared by the miner's forked workers. It is striped and
// single-flight exactly like the shared entropy memo: the first search to
// ask for a key computes it while the others wait on its latch, so each
// key is repaired once at any fan-out and the entropy-level counts of a
// mine do not depend on Workers. A settled root never changes but for its
// slots' states, so each miner also keeps the roots it has seen in a
// private table (Miner.roots) and reads them there — no lock, no map, no
// latch — coming here only for a key it has not seen; this stays the one
// place a root is computed. A pair slot is single-flight too, claimed by
// compare-and-swap: a settled slot is one atomic load, and only a caller
// that finds a search in flight takes the memo's lock, to sleep until the
// owner settles it.
type keyMemo struct {
	shards []keyShard
	mask   uint64

	// mu and settled put callers to sleep on a slot whose search is in
	// flight; an owner takes mu only when its slot was marked slotWaited.
	mu      sync.Mutex
	settled sync.Cond
}

type keyShard struct {
	mu sync.Mutex
	m  map[bitset.AttrSet]*keyRoot
	_  [64]byte // keep neighboring shards' locks off one cache line
}

// keyRoot is one key's root candidate. The goroutine that installed it
// fills it and releases ready (held from installation, so waiting costs no
// channel); the fields are immutable afterwards, except the slots'
// contents.
type keyRoot struct {
	ready   sync.WaitGroup
	deps    []bitset.AttrSet // canonical dependents of the root
	terms   []float64        // terms[i] = H(key ∪ deps[i])
	hKey    float64          // H(key)
	hAll    float64          // H(Ω) = H(key ∪ every dependent)
	j       float64          // J of the root
	aborted bool             // the mine was stopped mid-repair: no root

	// One slot per unordered dependent pair (see slot): the state of its
	// SeparatorHolds verdict, and — allocated on the key's first
	// GetFullMVDs(K = 0) — its full-MVD list.
	verdicts []atomic.Uint32
	fulls    atomic.Pointer[[]fullSlot]
}

// fullSlot is one dependent pair's GetFullMVDs(K = 0) result: mvds is
// written by the slot's owner before it settles state at slotDone, and is
// read-only from then on.
type fullSlot struct {
	state atomic.Uint32
	mvds  []mvd.MVD
}

// The states of a pair slot. A slot is open until a caller claims it
// (busy), and settles once its owner's search completes; an owner whose
// search was stopped reopens it instead, since a stopped search's holder
// count is not a verdict.
const (
	slotOpen   uint32    = iota // not searched
	slotBusy                    // claimed: the owner's search is running
	slotWaited                  // busy, and some caller sleeps on it
	slotNo                      // settled verdict: no ε-MVD separates the pair
	slotYes                     // settled verdict: one does
	slotDone   = slotYes        // settled full-MVD list
)

func newKeyMemo() *keyMemo {
	n := stripe.Count(0)
	k := &keyMemo{shards: make([]keyShard, n), mask: uint64(n - 1)}
	for i := range k.shards {
		k.shards[i].m = make(map[bitset.AttrSet]*keyRoot)
	}
	k.settled.L = &k.mu
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

// publish completes the owner's entry with copies of deps and terms, the
// J they give, and open slots for its dependent pairs.
func (r *keyRoot) publish(deps []bitset.AttrSet, terms []float64, hKey, hAll float64) {
	r.deps = slices.Clone(deps)
	r.terms = slices.Clone(terms)
	r.hKey, r.hAll = hKey, hAll
	r.j = info.JMVDTerms(terms, hKey, hAll)
	n := len(deps)
	r.verdicts = make([]atomic.Uint32, n*(n-1)/2)
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

// slot returns the index of the unordered pair of root dependents that a
// and b fall in — row-major over the upper triangle, so dependents i < j
// of n have slot i(2n−i−1)/2 + j−i−1 — or -1 when they share a dependent
// (the root does not separate them, so no search runs).
func (r *keyRoot) slot(a, b int) int {
	i, j := -1, -1
	for x, d := range r.deps {
		if d.Contains(a) {
			i = x
		}
		if d.Contains(b) {
			j = x
		}
	}
	if i == j || i < 0 || j < 0 {
		return -1
	}
	if i > j {
		i, j = j, i
	}
	return i*(2*len(r.deps)-i-1)/2 + j - i - 1
}

// fullSlots returns the root's full-MVD slots, allocating them on the
// key's first request.
func (r *keyRoot) fullSlots() []fullSlot {
	if p := r.fulls.Load(); p != nil {
		return *p
	}
	s := make([]fullSlot, len(r.verdicts))
	if r.fulls.CompareAndSwap(nil, &s) {
		return s
	}
	return *r.fulls.Load()
}

// claim returns the settled state of the slot st, waiting while another
// caller's search for it is in flight — or slotOpen, when the caller has
// claimed it and must end its claim with settle.
func (k *keyMemo) claim(st *atomic.Uint32) uint32 {
	for {
		switch s := st.Load(); s {
		case slotOpen:
			if st.CompareAndSwap(slotOpen, slotBusy) {
				return slotOpen
			}
		case slotBusy, slotWaited:
			k.wait(st)
		default:
			return s
		}
	}
}

// wait sleeps until st is no longer busy, marking it slotWaited first so
// that its owner's settle wakes the sleepers.
func (k *keyMemo) wait(st *atomic.Uint32) {
	k.mu.Lock()
	for {
		s := st.Load()
		if s == slotBusy && !st.CompareAndSwap(slotBusy, slotWaited) {
			continue
		}
		if s != slotBusy && s != slotWaited {
			break
		}
		k.settled.Wait()
	}
	k.mu.Unlock()
}

// settle ends the owner's claim on st with state s — a verdict, slotDone,
// or slotOpen to give the slot up unsearched — and wakes its waiters.
func (k *keyMemo) settle(st *atomic.Uint32, s uint32) {
	if st.Swap(s) == slotWaited {
		k.mu.Lock()
		k.settled.Broadcast()
		k.mu.Unlock()
	}
}
