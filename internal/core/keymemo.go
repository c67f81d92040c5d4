package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/mvd"
	"repro/internal/stripe"
)

// keyMemo remembers, per separator key, the root candidate of the
// getFullMVDs search, its terms and the entropies its J is summed from:
// the dependents' terms H(key ∪ Cᵢ), H(key) and H(Ω). Every search with the
// key starts out carrying them, and they are read once per key, never
// once per worker. All of it depends on the key, ε and the pruning
// setting only — never on the attribute pair a search is run for: the
// forced-merge closure of the all-singletons MVD (Fig. 16) merges the same
// pairs in the same order whatever (a,b) is, and the pair merely decides
// whether the result is usable (a and b must have stayed apart). So the
// root is repaired and scored once per key, and every later search starts
// from the stored value.
//
// The key's root also answers both questions a pair asks of the key, for
// every pair at once:
//
//   - GetFullMVDs. Every refinement of a candidate that separates a
//     and b separates them too, so a walk kept from uniting a and b finds
//     exactly the holders of the unrestricted walk that separate them, and
//     its full MVDs are the key's full MVDs F(key) that separate them. So
//     the key is walked once, with no pair to keep apart, and F(key) is
//     stored on the root; a pair filters it.
//   - SeparatorHolds (K = 1). J only falls when dependents merge, and a
//     forced repair merge never crosses a two-way split that holds. So an
//     ε-MVD with the key separates a and b iff some split {X, R∖X} of the
//     root's dependents with a's in X and b's outside has J ≤ ε. For a
//     root of m dependents that table costs 2^m − 2 unions, no more
//     lookups than one expansion of the root (C(m,2) neighbors, each
//     repaired in up to m − 1 merges) while m ≤ 7; the root's owner fills
//     it before it publishes the root, one verdict bit per pair of its
//     dependents. A wider root keeps one verdict slot per pair, each
//     searched once per mine by an early-stopping search.
//
// On the bench's 13-column relation at ε = 0.1 no root is wider than 7
// after repair, so a mine runs no K = 1 search and one walk per key it
// lists full MVDs for; TestKeyAnswersMatchSearch pins both answers
// against the per-pair searches, and TestOneWalkPerKey the count.
//
// The memo lives as long as its Miner — one mine, one ε, one pruning
// setting — and is shared by the miner's forked workers. It is
// single-flight like the shared entropy memo: the first search to ask for
// a key computes it while the others wait on its latch, so each key is
// repaired once at any fan-out and the entropy-level counts of a mine do
// not depend on Workers. Over at most bitset.DenseMaxAttrs attributes it
// is a table indexed by the key, one pointer per set of the lattice (64
// KiB per mine at 13 attributes): the root is installed in its slot by
// compare-and-swap, and a settled root is one atomic load. Wider, it is a
// stripe.Store with no budget, and since a settled root never changes but
// for its walk and slots, each miner also keeps the roots it has seen in
// a private stripe.Table (Miner.roots) and reads them there — no lock, no
// map, no latch — coming here only for a key it has not seen. Either way
// this stays the one place a root is computed. A walk and a verdict slot are
// single-flight too, claimed by compare-and-swap: a settled one is one
// atomic load, and only a caller that finds its owner in flight takes the
// memo's lock, to sleep until the owner settles it.
type keyMemo struct {
	dense  bitset.Dense[atomic.Pointer[keyRoot]]   // nil when too wide
	hashed *stripe.Store[bitset.AttrSet, *keyRoot] // nil when dense

	// mu and settled put callers to sleep on a walk or slot whose search
	// is in flight; an owner takes mu only when it was marked slotWaited.
	mu      sync.Mutex
	settled sync.Cond
}

// keyRoot is one key's root candidate. The goroutine that owns it fills
// it and releases ready (held from installation, so waiting on a dense
// slot costs no channel); the fields are immutable afterwards, except the
// walk's and the verdict slots'.
type keyRoot struct {
	ready   sync.WaitGroup
	deps    []bitset.AttrSet // canonical dependents of the root
	terms   []float64        // terms[i] = H(key ∪ deps[i])
	hKey    float64          // H(key)
	hAll    float64          // H(Ω) = H(key ∪ every dependent)
	aborted bool             // the mine was stopped mid-repair: no root

	// walk is the state of the key's unrestricted walk, and fulls the
	// full MVDs it found, sorted: set by the walk's owner before it
	// settles walk — at slotDone, read-only from then on; reopened, the
	// partial list of a walk the stop cut short (see Miner.keyFulls).
	walk  atomic.Uint32
	fulls *[]mvd.MVD

	// The SeparatorHolds verdicts, one per unordered dependent pair (see
	// slot): bits of the split table on a root of at most splitMaxDeps
	// dependents, else slot states searched on demand.
	holds    uint64
	verdicts []atomic.Uint32
}

// The states of a walk or a verdict slot. It is open until a caller
// claims it (busy), and settles once its owner's search completes; an
// owner whose search was stopped reopens it instead, since a stopped
// search's holders are not an answer.
const (
	slotOpen   uint32    = iota // not searched
	slotBusy                    // claimed: the owner's search is running
	slotWaited                  // busy, and some caller sleeps on it
	slotNo                      // settled verdict: no ε-MVD separates the pair
	slotYes                     // settled verdict: one does
	slotDone   = slotYes        // settled walk
)

// splitMaxDeps is the widest root whose verdicts come from the split
// table: the largest m with 2^m − 2 ≤ C(m,2)·(m − 1), 126 ≤ 126 (at 8,
// 254 > 196).
const splitMaxDeps = 7

// newKeyMemo returns an empty memo for keys over n attributes.
func newKeyMemo(n int) *keyMemo {
	k := &keyMemo{dense: bitset.NewDense[atomic.Pointer[keyRoot]](n)}
	if k.dense == nil {
		k.hashed = stripe.NewStore[bitset.AttrSet, *keyRoot](0, 0, nil, nil)
	}
	k.settled.L = &k.mu
	return k
}

// acquire returns sep's root. owner is true for the one caller that must
// compute it and then publish or abort; everyone else gets it complete or
// aborted (having waited for the owner if need be).
func (k *keyMemo) acquire(sep bitset.AttrSet) (r *keyRoot, owner bool) {
	if k.dense != nil {
		slot := k.dense.At(sep)
		for {
			if r = slot.Load(); r != nil {
				r.ready.Wait()
				return r, false
			}
			// The slot may empty again if its owner aborts before this
			// swap: then try again.
			r = &keyRoot{}
			r.ready.Add(1)
			if slot.CompareAndSwap(nil, r) {
				return r, true
			}
		}
	}
	if r, owner = k.hashed.Acquire(sep); owner {
		r = &keyRoot{}
		r.ready.Add(1)
	}
	return r, owner
}

// publish completes the owner's root r of sep with copies of deps and
// terms, the split-table verdicts holds of a root of at most
// splitMaxDeps dependents, and open verdict slots for a wider one.
func (k *keyMemo) publish(sep bitset.AttrSet, r *keyRoot, deps []bitset.AttrSet, terms []float64, hKey, hAll float64, holds uint64) {
	r.deps = slices.Clone(deps)
	r.terms = slices.Clone(terms)
	r.hKey, r.hAll = hKey, hAll
	r.holds = holds
	if n := len(deps); n > splitMaxDeps {
		r.verdicts = make([]atomic.Uint32, n*(n-1)/2)
	}
	r.ready.Done()
	if k.hashed != nil {
		k.hashed.Publish(sep, r, false)
	}
}

// abort withdraws the owner's root: current waiters see it aborted, and
// a later phase of the same miner (under a freshly bound context) finds
// the key absent and repairs it afresh.
func (k *keyMemo) abort(sep bitset.AttrSet, r *keyRoot) {
	r.aborted = true
	if k.dense != nil {
		k.dense.At(sep).Store(nil)
	} else {
		k.hashed.Abort(sep, r)
	}
	r.ready.Done()
}

// slot returns the index of the unordered pair of root dependents that a
// and b fall in (see pairIndex), or -1 when they share a dependent (the
// root does not separate them, so no search runs).
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
	return pairIndex(min(i, j), max(i, j), len(r.deps))
}

// pairIndex is the slot of dependents i < j of n: row-major over the upper
// triangle.
func pairIndex(i, j, n int) int {
	return i*(2*n-i-1)/2 + j - i - 1
}

// claim returns the settled state of the walk or slot st, waiting while
// another caller's search for it is in flight — or slotOpen, when the caller has
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
// or slotOpen to give it up unsearched — and wakes its waiters.
func (k *keyMemo) settle(st *atomic.Uint32, s uint32) {
	if st.Swap(s) == slotWaited {
		k.mu.Lock()
		k.settled.Broadcast()
		k.mu.Unlock()
	}
}
