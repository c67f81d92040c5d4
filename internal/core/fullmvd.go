package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/obs"
	"repro/internal/stripe"
)

// Miner binds an entropy oracle to mining options. All phase-1 and phase-2
// entry points hang off it. Miner is not safe for concurrent use; for
// concurrent mining give each goroutine its own Miner (oracles are cheap,
// the relation behind them is shared read-only).
type Miner struct {
	oracle *entropy.Oracle
	// src is the entropy source all J evaluations go through: the oracle
	// itself on a top-level miner, a worker-local entropy.Local (carrying
	// a per-goroutine PLI arena) on the forked workers of phase 1's
	// fan-out, one worker included — same memo and counters either way.
	src   source
	opts  Options
	ctx   context.Context // bound by WithContext
	done  *atomic.Bool    // set once ctx is done; what the loops poll
	cause error           // first stop cause (context error or ErrInterrupted)

	// keys holds each separator key's search root, with its dependent
	// pairs' verdicts and its settled full MVDs, for the duration of the
	// mine; forked workers share it. roots is this miner's private
	// table of the settled, non-aborted roots it has read from keys when
	// keys is hashed; a dense keys is read directly. scratch is this
	// miner's own search storage.
	keys    *keyMemo
	roots   stripe.Table[bitset.AttrSet, *keyRoot]
	scratch searchScratch

	// team is the entropy views of the last phase 1, kept until the mine
	// ends so that the scheme phase reads what that phase counted.
	team *entropy.Team

	// searchStats accumulates across getFullMVDs invocations.
	searchStats SearchStats
	minsepTrace MinSepTrace

	// trace is the stage-level mine trace (Options.Trace when set, owned
	// otherwise); stages accumulates the in-flight phase's stage counters.
	// Workers fork with zero stages, merged back under the parallel
	// driver's stats lock; only the parent miner appends phases.
	trace  *obs.MineTrace
	stages stageAccum

	// afterGraphRow, when set (by tests), is called from the graph
	// build's workers after each finished row.
	afterGraphRow func(row int)
}

// source is what the search asks of the entropy layer: the J-measures'
// H and MI, plus MI over carried terms, which looks up only the union's
// entropy and hands it back. Both *entropy.Oracle and *entropy.Local
// provide it.
type source interface {
	info.Source
	MICarried(hxy, hxz, hx float64, y, z, x bitset.AttrSet) (mi, hxyz float64)
}

// SearchStats counts getFullMVDs work across a mining run.
type SearchStats struct {
	// Searches counts the lattice walks run: one unrestricted walk per
	// key whose full MVDs a mine lists, one early-stopping search per key
	// and pair of dependents of a root wider than splitMaxDeps whose
	// separator verdict a mine asks for. A request answered from the key
	// memo — a settled walk or verdict, or a narrower root's split table —
	// runs no search.
	Searches int
	// Visited counts the candidate MVDs those searches popped and
	// evaluated, and Pruned the neighbors they discarded because the
	// pairwise-consistency repair united the pair a search keeps apart
	// (or was stopped); an unrestricted walk keeps no pair apart.
	Visited int
	Pruned  int
	// JEvals counts the J-measures the searches consulted, one per
	// candidate visited. A search's root is scored once per key and mine
	// and read from the key memo by every later search with that key; a
	// request answered from the key memo consults none.
	JEvals  int
	Repairs int // getPairwiseConsistentMVD merge steps performed
}

// NewMiner builds a miner over the oracle with the given options.
func NewMiner(o *entropy.Oracle, opts Options) *Miner {
	tr := opts.Trace
	if tr == nil {
		tr = &obs.MineTrace{}
	} else {
		tr.Reset()
	}
	n := 0 // a miner without an oracle builds phase-2 graphs only: it asks for no key
	if o != nil {
		n = o.NumAttrs()
	}
	return &Miner{oracle: o, src: o, opts: opts, ctx: context.Background(), done: new(atomic.Bool), keys: newKeyMemo(n), trace: tr}
}

// Oracle exposes the underlying entropy oracle (stats reporting).
func (m *Miner) Oracle() *entropy.Oracle { return m.oracle }

// Options returns the miner's options.
func (m *Miner) Options() Options { return m.opts }

// SearchStats returns accumulated search counters.
func (m *Miner) SearchStats() SearchStats { return m.searchStats }

// GetFullMVDs is getFullMVDs/getFullMVDsOpt (paper Figs. 6 and 17) at
// the paper's K = ∞: it returns the full ε-MVDs with key sep in which
// attributes a and b lie in distinct dependents.
//
// The search walks the dependent-partition lattice from the most refined
// candidate (all singletons) towards coarser ones, expanding a candidate's
// merge-neighbors (Eq. 13) only when its J exceeds ε; outputs are the
// refinement-maximal holders, i.e. the full MVDs (Sec. 5.2). When
// Options.PairwiseConsistency is set, candidates are first repaired with
// the forced merges of getPairwiseConsistentMVD (Fig. 16).
//
// The list is the key's full MVDs that separate a and b: sep is walked
// once, unrestricted, for the life of the miner (see keyMemo), and every
// pair filters what that walk found. The returned slice is the caller's,
// but the dependents of its MVDs are shared — the caller must not modify
// them.
func (m *Miner) GetFullMVDs(sep bitset.AttrSet, a, b int) []mvd.MVD {
	return m.appendFullMVDs(nil, sep, a, b)
}

// appendFullMVDs appends GetFullMVDs(sep, a, b) to dst, growing dst at
// most once.
func (m *Miner) appendFullMVDs(dst []mvd.MVD, sep bitset.AttrSet, a, b int) []mvd.MVD {
	root, slot := m.pairSlot(sep, a, b)
	if slot < 0 {
		return dst
	}
	fulls := m.keyFulls(sep, root)
	n := 0
	for _, phi := range fulls {
		if phi.Separates(a, b) {
			n++
		}
	}
	if n > cap(dst)-len(dst) {
		// One allocation, at least doubling like append; slices.Grow
		// takes two under the race detector.
		dst = append(make([]mvd.MVD, 0, max(len(dst)+n, 2*cap(dst))), dst...)
	}
	for _, phi := range fulls {
		if phi.Separates(a, b) {
			dst = append(dst, phi)
		}
	}
	return dst
}

// keyFulls returns the full MVDs of sep's unrestricted walk, sorted,
// walking the key on its first request of the mine. A walk the stop cuts
// short settles nothing — the key reopens, and the next request under a
// live context walks it afresh — but it leaves its partial list on the
// root for the callers that wake to the same stop, as their own searches
// would have returned theirs.
func (m *Miner) keyFulls(sep bitset.AttrSet, root *keyRoot) []mvd.MVD {
	if m.keys.claim(&root.walk) != slotOpen {
		return *root.fulls
	}
	if m.stopped() && root.fulls != nil {
		out := *root.fulls
		m.keys.settle(&root.walk, slotOpen)
		return out
	}
	m.search(sep, -1, -1, 0, true)
	out := m.fullMVDs(sep)
	root.fulls = &out
	if m.stopped() {
		m.keys.settle(&root.walk, slotOpen)
	} else {
		m.keys.settle(&root.walk, slotDone)
	}
	return out
}

// fullMVDs returns, sorted, the refinement-maximal holders the last
// search with key sep collected: a holder refined by another holder is not
// full. (Holders reached along different DFS paths can be coarsenings of
// one another.) Only the survivors leave the scratch storage.
//
// A walk can collect millions of holders, so each pair is first tested
// on two words per holder (see holderSig); only a pair that passes is
// compared dependent by dependent. The filter is quadratic in the
// holders, so it polls the stop signal once per holder it verifies and,
// once stopped, returns the full MVDs verified so far.
func (m *Miner) fullMVDs(sep bitset.AttrSet) []mvd.MVD {
	s := &m.scratch
	sigs := s.sigs[:0]
	for _, ref := range s.holders {
		sigs = append(sigs, newHolderSig(s.deps(ref)))
	}
	s.sigs = sigs
	var out []mvd.MVD
	for i, ri := range s.holders {
		if m.stopped() {
			break
		}
		phi := mvd.MVD{Key: sep, Deps: s.deps(ri)}
		dominated := false
		for j, rj := range s.holders {
			if sigs[j].mayStrictlyRefine(sigs[i]) && (mvd.MVD{Key: sep, Deps: s.deps(rj)}).Refines(phi) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, mvd.MVD{Key: sep, Deps: slices.Clone(phi.Deps)})
		}
	}
	mvd.Sort(out)
	return out
}

// holderSig is what a strict refinement must show of a candidate: all
// candidates of a search split the same attributes, and a strict
// refinement splits them into more dependents, each inside one of the
// coarser candidate's. So each of the coarser candidate's dependents
// keeps its least attribute as the least of one of the refinement's, and
// an attribute the refinement keeps with the next attribute of the split
// set the coarser candidate keeps with it too.
type holderSig struct {
	n      int    // dependents
	mins   uint64 // their least attributes
	joined uint64 // attributes in the dependent of the next attribute
}

func newHolderSig(deps []bitset.AttrSet) holderSig {
	var all bitset.AttrSet
	for _, d := range deps {
		all = all.Union(d)
	}
	sig := holderSig{n: len(deps)}
	for _, d := range deps {
		sig.mins |= 1 << uint(d.Min())
		for rest := uint64(d); rest != 0; rest &= rest - 1 {
			x := rest & -rest
			if above := uint64(all) &^ (x<<1 - 1); above&-above&uint64(d) != 0 {
				sig.joined |= x
			}
		}
	}
	return sig
}

// mayStrictlyRefine reports whether a candidate with signature s can
// strictly refine one with signature o: false proves it does not.
func (s holderSig) mayStrictlyRefine(o holderSig) bool {
	return s.n > o.n && o.mins&^s.mins == 0 && s.joined&^o.joined == 0
}

// SeparatorHolds reports whether sep admits any ε-MVD separating a and b —
// the test used by MineMinSeps and ReduceMinSep (K = 1 call sites). On a
// root of at most splitMaxDeps dependents the verdict is a bit of the
// split table its owner filled; on a wider one it is searched once per
// key and pair of root dependents for the life of the miner (see
// keyMemo), and a settled one is an atomic load.
func (m *Miner) SeparatorHolds(sep bitset.AttrSet, a, b int) bool {
	root, slot := m.pairSlot(sep, a, b)
	if slot < 0 {
		return false
	}
	if root.verdicts == nil {
		return root.holds&(1<<slot) != 0
	}
	v := &root.verdicts[slot]
	if s := m.keys.claim(v); s != slotOpen {
		return s == slotYes
	}
	holds := m.search(sep, a, b, 1, false) > 0
	switch {
	case m.stopped():
		m.keys.settle(v, slotOpen)
	case holds:
		m.keys.settle(v, slotYes)
	default:
		m.keys.settle(v, slotNo)
	}
	return holds
}

// pairSlot returns sep's root and the slot of the dependent pair a and b
// fall in (see keyRoot.slot), or -1 when no search can separate them: the
// root unites them, or the mine was stopped while it was repaired. It
// panics when sep contains a or b.
func (m *Miner) pairSlot(sep bitset.AttrSet, a, b int) (*keyRoot, int) {
	if sep.Contains(a) || sep.Contains(b) {
		panic(fmt.Sprintf("core: separator %v contains one of the pair (%d,%d)", sep, a, b))
	}
	root := m.keyRoot(sep)
	if root.aborted {
		return root, -1
	}
	return root, root.slot(a, b)
}

// search is the lattice walk behind GetFullMVDs and SeparatorHolds, kept
// from uniting a pair pairSlot accepted, or unrestricted — a key's walk —
// when a < 0. It returns the number of holders found — it stops at k when
// k > 0 — and, when collect is set, leaves them in scratch.holders in
// discovery order. The entry points run it only for a walk or slot they
// claimed, so it counts the searches run, not those requested.
//
// The walk runs in the miner's scratch storage (see searchScratch) and
// allocates nothing once the scratch has grown to the search's size.
func (m *Miner) search(sep bitset.AttrSet, a, b, k int, collect bool) int {
	s := &m.scratch
	s.reset()
	root := m.keyRoot(sep)
	if root.aborted || (a >= 0 && root.slot(a, b) < 0) {
		return 0
	}
	m.searchStats.Searches++
	deps, terms := s.tail(len(root.deps))
	copy(terms[:len(root.terms)], root.terms)
	rootRef, _ := s.keep(append(deps, root.deps...))
	s.stack = append(s.stack, rootRef)

	found := 0
	for len(s.stack) > 0 {
		if k > 0 && found >= k {
			break
		}
		if m.stopped() {
			break
		}
		ref := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		m.searchStats.Visited++
		m.searchStats.JEvals++
		if info.LeqEps(candJ(s, root, ref), m.opts.Epsilon) {
			found++
			if collect {
				s.holders = append(s.holders, ref)
			}
			continue
		}
		m.expand(sep, root, ref, a, b)
	}
	return found
}

// candJ is the J the search compares with ε for the candidate at ref: the
// JMVD sum over the terms the candidate carries, with H(key) and H(Ω) from
// its root — no entropy is looked up.
func candJ(s *searchScratch, root *keyRoot, ref candRef) float64 {
	return info.JMVDTerms(s.termsOf(ref), root.hKey, root.hAll)
}

// expand pushes the not-yet-visited search-space neighbors of the
// candidate at ref (Eq. 13): every merge of two of its dependents that
// keeps a and b apart (every merge when a < 0), repaired first when
// pruning is on. Neighbors are built one at a time at the arena's tail, in
// canonical (i, j) order, and only the new ones stay there. A neighbor
// carries its parent's terms but the union's, which is the one entropy
// looked up here.
func (m *Miner) expand(sep bitset.AttrSet, root *keyRoot, ref candRef, a, b int) {
	s := &m.scratch
	n := int(ref.n)
	ia, ib := -1, -1
	if a >= 0 {
		cur := mvd.MVD{Key: sep, Deps: s.deps(ref)}
		ia, ib = cur.DepIndexOf(a), cur.DepIndexOf(b)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i == ia && j == ib) || (i == ib && j == ia) {
				continue // would merge a's and b's dependents together
			}
			deps, terms := s.tail(n - 1)
			phi := s.deps(ref)
			u := phi[i].Union(phi[j])
			cand, at := mvd.MergeDeps(deps, phi, i, j)
			candTerms := mergeTerms(terms, s.termsOf(ref), i, j, at, m.src.H(sep.Union(u)))
			if m.opts.PairwiseConsistency {
				// phi is pairwise consistent (it was repaired before it
				// was pushed), so in its neighbor only the pairs of the
				// merged dependent are open.
				// The repair merges in place, so its terms stay at the
				// tail beside cand.
				m.markConsistentExcept(cand, u)
				var ok bool
				if cand, _, ok = m.repair(sep, cand, candTerms, root.hKey, a, b); !ok {
					m.searchStats.Pruned++
					continue
				}
			}
			if nb, isNew := s.keep(cand); isNew {
				s.stack = append(s.stack, nb)
			}
		}
	}
}

// keyRoot returns the root candidate of every search with key sep — the
// all-singletons MVD, repaired when pruning is on — with its terms and
// separator verdicts, computing them on the first request of the mine
// (see keyMemo). Over a hashed key memo, a root this miner has read
// settled before comes from its private table.
func (m *Miner) keyRoot(sep bitset.AttrSet) *keyRoot {
	private := m.keys.dense == nil
	if private {
		if r, ok := m.roots.Get(sep); ok {
			return r
		}
	}
	r, owner := m.keys.acquire(sep)
	if !owner {
		if private && !r.aborted {
			m.roots.Put(sep, r)
		}
		return r
	}
	hKey := m.src.H(sep)
	deps, terms := m.scratch.root[:0], m.scratch.rootTerms[:0]
	for rest := sep.Complement(m.oracle.NumAttrs()); rest != 0; rest &= rest - 1 {
		d := rest & -rest
		deps = append(deps, d)
		terms = append(terms, m.src.H(sep.Union(d)))
	}
	if m.opts.PairwiseConsistency {
		m.scratch.consistent = [bitset.MaxAttrs]uint64{} // nothing is known yet
		var ok bool
		// No pair: the closure runs to the end, and each search checks
		// its own pair against the result. Merges only ever unite, so a
		// pair united on the way is still united there.
		if deps, terms, ok = m.repair(sep, deps, terms, hKey, -1, -1); !ok {
			m.keys.abort(sep, r)
			return r
		}
	}
	hAll := m.src.H(bitset.Full(m.oracle.NumAttrs()))
	var holds uint64
	if len(deps) <= splitMaxDeps {
		// Filled before the root is published: a reader never sees a
		// root without its verdicts.
		holds = m.splitVerdicts(sep, deps, terms, hKey, hAll)
	}
	m.keys.publish(sep, r, deps, terms, hKey, hAll, holds)
	if private {
		m.roots.Put(sep, r)
	}
	return r
}

// splitVerdicts is the separator table of a root of at most splitMaxDeps
// dependents (see keyMemo): bit slot(i, j) is set when some two-way split
// of deps puts dependents i and j on opposite sides and has J ≤ ε. It
// looks up H(key ∪ X) for every union X of dependents but the whole and
// the single ones, whose terms the root carries — unless the root itself
// holds: then it separates every pair, as a search finds at its first
// candidate, and no lookup is needed.
func (m *Miner) splitVerdicts(key bitset.AttrSet, deps []bitset.AttrSet, terms []float64, hKey, hAll float64) uint64 {
	n := len(deps)
	if info.LeqEps(info.JMVDTerms(terms, hKey, hAll), m.opts.Epsilon) {
		return 1<<(n*(n-1)/2) - 1
	}
	all := 1<<n - 1
	unions, h := &m.scratch.splitUnions, &m.scratch.splitH
	unions[0] = key
	for x := 1; x < all; x++ {
		low := bits.TrailingZeros(uint(x))
		unions[x] = unions[x&(x-1)].Union(deps[low])
		if x&(x-1) == 0 {
			h[x] = terms[low]
		} else {
			h[x] = m.src.H(unions[x])
		}
	}
	var holds uint64
	for x := 1; x < all; x += 2 { // each split once, by the side holding dependent 0
		y := all ^ x
		if !info.LeqEps(info.JMVDTerms([]float64{h[x], h[y]}, hKey, hAll), m.opts.Epsilon) {
			continue
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (x>>i)&1 != (x>>j)&1 {
					holds |= 1 << pairIndex(i, j, n)
				}
			}
		}
	}
	return holds
}

// repair is getPairwiseConsistentMVD (Fig. 16), in place: while some
// dependent pair Ci,Cj of deps has I(Ci;Cj|key) > ε, merge the first such
// pair in canonical order (the merge is forced: any ε-MVD coarsening the
// candidate must unite that pair, by Prop. 5.1/5.2). terms carries
// H(key ∪ Ci) beside each dependent and hKey is H(key); the merged
// dependent's term is the H(key ∪ Ci ∪ Cj) its failing test just read. It
// returns the repaired list and terms, or false when the merges united a
// and b (pass a < 0 for no such pair) or the mine was stopped.
//
// The scan skips pairs the miner's consistency matrix already marks: a
// pair of dependents neither of which changed has the same mutual
// information bit for bit. Dependents are disjoint, so each is named by
// its lowest attribute, and consistent[min Ci] has bit (min Cj) set once
// I(Ci;Cj|key) ≤ ε is known; a merge clears the row and column of the
// dependent it made. The caller seeds the matrix (markConsistentExcept).
// Skipping never reorders anything — the first inconsistent pair of a
// scan is the one a scan from scratch would find.
func (m *Miner) repair(key bitset.AttrSet, deps []bitset.AttrSet, terms []float64, hKey float64, a, b int) ([]bitset.AttrSet, []float64, bool) {
	for {
		// A single pass costs up to O(m²) mutual-information evaluations
		// (m up to 45 on the widest dataset), so the context must be
		// honored here too; under timeout results are partial anyway.
		if m.stopped() {
			return nil, nil, false
		}
		i, j, hu := m.findInconsistentPair(key, deps, terms, hKey)
		if i < 0 {
			return deps, terms, true
		}
		m.searchStats.Repairs++
		u := deps[i].Union(deps[j])
		if a >= 0 && u.Contains(a) && u.Contains(b) {
			return nil, nil, false
		}
		var at int
		deps, at = mvd.MergeDeps(deps[:0], deps, i, j)
		terms = mergeTerms(terms[:0], terms, i, j, at, hu)
		open := ^(uint64(1) << uint(u.Min()))
		for _, d := range deps {
			m.scratch.consistent[d.Min()] &= open
		}
		m.scratch.consistent[u.Min()] = 0
	}
}

// markConsistentExcept seeds the consistency matrix for a repair of deps:
// every pair is marked consistent except those of the dependent changed.
func (m *Miner) markConsistentExcept(deps []bitset.AttrSet, changed bitset.AttrSet) {
	rows := &m.scratch.consistent
	var names uint64
	for _, d := range deps {
		names |= 1 << uint(d.Min())
	}
	names &^= 1 << uint(changed.Min())
	for _, d := range deps {
		rows[d.Min()] = names
	}
	rows[changed.Min()] = 0
}

// findInconsistentPair returns the first dependent pair (canonical order)
// violating I(Ci;Cj|key) ≤ ε and the H(key ∪ Ci ∪ Cj) its test read, or
// (-1,-1), marking the pairs it finds consistent on the way. Each test is
// one lookup: H(key ∪ Ci) and H(key ∪ Cj) are carried in terms and H(key)
// is hKey, and MICarried sums the four in MI's order.
func (m *Miner) findInconsistentPair(key bitset.AttrSet, deps []bitset.AttrSet, terms []float64, hKey float64) (int, int, float64) {
	rows := &m.scratch.consistent
	for i, ci := range deps {
		ri := ci.Min()
		for j := i + 1; j < len(deps); j++ {
			cj := deps[j]
			rj := cj.Min()
			if rows[ri]&(1<<uint(rj)) != 0 {
				continue
			}
			mi, hu := m.src.MICarried(terms[i], terms[j], hKey, ci, cj, key)
			if !info.LeqEps(mi, m.opts.Epsilon) {
				return i, j, hu
			}
			rows[ri] |= 1 << uint(rj)
			rows[rj] |= 1 << uint(ri)
		}
	}
	return -1, -1, 0
}
