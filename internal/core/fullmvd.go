package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/obs"
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
	// pairs' settled verdicts and full-MVD lists, for the duration of the
	// mine; forked workers share it. roots is this miner's private
	// table of the settled, non-aborted roots it has read from keys.
	// scratch is this miner's own search storage.
	keys    *keyMemo
	roots   rootTable
	scratch searchScratch

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
	// Searches counts the lattice walks run: one per key, pair of root
	// dependents and stage (separator test, or K = 0 full-MVD list) in a
	// mine, plus one per K > 0 GetFullMVDs. A request whose slot has
	// settled is answered from the key memo and runs no search.
	Searches int
	Visited  int // candidate MVDs popped and evaluated
	Pruned   int // candidates discarded by the pairwise-consistency repair
	// JEvals counts the J-measures the searches run consulted, one per
	// candidate visited. A search's root is scored once per key and mine
	// and read from the key memo by every later search with that key; a
	// request answered from a settled slot consults none.
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
	return &Miner{oracle: o, src: o, opts: opts, ctx: context.Background(), done: new(atomic.Bool), keys: newKeyMemo(), trace: tr}
}

// Oracle exposes the underlying entropy oracle (stats reporting).
func (m *Miner) Oracle() *entropy.Oracle { return m.oracle }

// Options returns the miner's options.
func (m *Miner) Options() Options { return m.opts }

// SearchStats returns accumulated search counters.
func (m *Miner) SearchStats() SearchStats { return m.searchStats }

// GetFullMVDs is getFullMVDs/getFullMVDsOpt (paper Figs. 6 and 17): it
// returns up to k full ε-MVDs with key sep in which attributes a and b lie
// in distinct dependents. k = 0 means unlimited (the paper's K = ∞).
//
// The search walks the dependent-partition lattice from the most refined
// candidate (all singletons) towards coarser ones, expanding a candidate's
// merge-neighbors (Eq. 13) only when its J exceeds ε; outputs are the
// refinement-maximal holders, i.e. the full MVDs (Sec. 5.2). When
// Options.PairwiseConsistency is set, candidates are first repaired with
// the forced merges of getPairwiseConsistentMVD (Fig. 16).
//
// A k = 0 list is searched once per key and pair of root dependents for
// the life of the miner (see keyMemo): every later pair whose a and b fall
// in the same two dependents of sep's root gets the same list back. That
// list is shared, not copied — the caller must not modify it or the
// dependents of its MVDs. Any k > 0 searches afresh and returns a list of
// the caller's own.
func (m *Miner) GetFullMVDs(sep bitset.AttrSet, a, b int, k int) []mvd.MVD {
	root, slot := m.pairSlot(sep, a, b)
	if slot < 0 {
		return nil
	}
	if k > 0 {
		m.search(sep, a, b, k, true)
		return m.fullMVDs(sep)
	}
	fs := &root.fullSlots()[slot]
	if m.keys.claim(&fs.state) != slotOpen {
		return fs.mvds
	}
	m.search(sep, a, b, 0, true)
	out := m.fullMVDs(sep)
	if m.stopped() {
		m.keys.settle(&fs.state, slotOpen)
		return out
	}
	fs.mvds = out
	m.keys.settle(&fs.state, slotDone)
	return out
}

// fullMVDs returns, sorted, the refinement-maximal holders the last
// search with key sep collected: a holder refined by another holder is not
// full. (Holders reached along different DFS paths can be coarsenings of
// one another.) Only the survivors leave the scratch storage.
func (m *Miner) fullMVDs(sep bitset.AttrSet) []mvd.MVD {
	s := &m.scratch
	var out []mvd.MVD
	for i, ri := range s.holders {
		phi := mvd.MVD{Key: sep, Deps: s.deps(ri)}
		dominated := false
		for j, rj := range s.holders {
			if i != j && (mvd.MVD{Key: sep, Deps: s.deps(rj)}).StrictlyRefines(phi) {
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

// SeparatorHolds reports whether sep admits any ε-MVD separating a and b —
// the test used by MineMinSeps and ReduceMinSep (K = 1 call sites). The
// verdict is searched once per key and pair of root dependents for the
// life of the miner (see keyMemo); a settled one is an atomic load.
func (m *Miner) SeparatorHolds(sep bitset.AttrSet, a, b int) bool {
	root, slot := m.pairSlot(sep, a, b)
	if slot < 0 {
		return false
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

// search is the lattice walk behind GetFullMVDs and SeparatorHolds, for a
// pair pairSlot accepted. It returns the number of holders found — it
// stops at k when k > 0 — and, when collect is set, leaves them in
// scratch.holders in discovery order. The entry points run it only for a
// slot they claimed, so it counts the searches run, not those requested.
//
// The walk runs in the miner's scratch storage (see searchScratch) and
// allocates nothing once the scratch has grown to the search's size.
func (m *Miner) search(sep bitset.AttrSet, a, b, k int, collect bool) int {
	s := &m.scratch
	s.reset()
	root := m.keyRoot(sep)
	if root.aborted || root.slot(a, b) < 0 {
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
// keeps a and b apart, repaired first when pruning is on. Neighbors are
// built one at a time at the arena's tail, in canonical (i, j) order, and
// only the new ones stay there. A neighbor carries its parent's terms but
// the union's, which is the one entropy looked up here.
func (m *Miner) expand(sep bitset.AttrSet, root *keyRoot, ref candRef, a, b int) {
	s := &m.scratch
	n := int(ref.n)
	cur := mvd.MVD{Key: sep, Deps: s.deps(ref)}
	ia, ib := cur.DepIndexOf(a), cur.DepIndexOf(b)
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
// all-singletons MVD, repaired when pruning is on — with its terms and J,
// computing them on the first request of the mine (see keyMemo). A root
// this miner has read settled before comes from its private table.
func (m *Miner) keyRoot(sep bitset.AttrSet) *keyRoot {
	if r, ok := m.roots.get(sep); ok {
		return r
	}
	r, owner := m.keys.acquire(sep)
	if !owner {
		if !r.aborted {
			m.roots.put(sep, r)
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
	r.publish(deps, terms, hKey, m.src.H(bitset.Full(m.oracle.NumAttrs())))
	m.roots.put(sep, r)
	return r
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
