// Package transversal enumerates minimal transversals (minimal hitting
// sets) of a growing hypergraph.
//
// MineMinSeps (paper Fig. 5, after Gunopulos et al.) interleaves two
// operations: add a newly found minimal separator as a hyperedge, and ask
// for a not-yet-processed minimal transversal of the current hypergraph.
// This package provides exactly that interface. Edges are added one at a
// time, so the transversal set is maintained incrementally with Berge's
// multiplication: when edge E arrives, transversals already hitting E
// survive, and each of the others is extended by those vertices of E
// that leave every one of its vertices a private edge — found in one pass
// over the old edges per transversal.
//
// The theoretically best algorithm (Fredman–Khachiyan) has quasi-
// polynomial delay; Berge's is worst-case exponential in |edges| but is
// simple, incremental, and fast at the hypergraph sizes mining produces —
// the paper itself bounds the number of wasted transversals between
// discoveries by the negative border |BD⁻(S)| ≤ n·|S| (Thm. 12.2),
// independent of the enumeration engine.
package transversal

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
)

// Enumerator maintains the minimal transversals of a hypergraph over a
// fixed universe while edges are added, and hands out each minimal
// transversal of the current hypergraph at most once.
type Enumerator struct {
	universe bitset.AttrSet
	edges    []bitset.AttrSet
	mts      []entry // current minimal transversals, canonical order
	// ext is AddEdge's working storage, reused by the next call: the
	// extensions that replace the transversals an edge misses.
	ext  []entry
	head int  // every entry before head has been handed out
	dead bool // an empty edge was added: no transversal can hit it
}

// entry is one current minimal transversal and whether Next has already
// returned it.
type entry struct {
	set  bitset.AttrSet
	done bool
}

// New returns an enumerator over the given universe with no edges. With an
// empty hypergraph the empty set is the unique minimal transversal.
func New(universe bitset.AttrSet) *Enumerator {
	e := &Enumerator{}
	e.Reset(universe)
	return e
}

// Reset makes e what New(universe) returns, keeping its storage, so an
// enumerator reused across hypergraphs stops allocating once its buffers
// have grown to the largest one.
func (e *Enumerator) Reset(universe bitset.AttrSet) {
	e.universe = universe
	e.edges = e.edges[:0]
	e.mts = append(e.mts[:0], entry{set: bitset.Empty()})
	e.head = 0
	e.dead = false
}

// Edges returns the edges added so far.
func (e *Enumerator) Edges() []bitset.AttrSet { return e.edges }

// Transversals returns a copy of the current minimal transversals in
// canonical order.
func (e *Enumerator) Transversals() []bitset.AttrSet {
	out := make([]bitset.AttrSet, len(e.mts))
	for i, t := range e.mts {
		out[i] = t.set
	}
	return out
}

// AddEdge inserts a hyperedge and updates the minimal transversal set.
// Vertices outside the universe are ignored. Adding the empty edge makes
// the hypergraph unhittable: enumeration ends.
//
// This is one Berge step, done incrementally. A minimal transversal that
// already hits the new edge keeps all its private edges, so it stays
// minimal and is kept — with its handed-out mark — without a re-check. One
// that misses the edge is replaced by its minimal extensions t ∪ {v}, v in
// the edge, and one pass over the old edges finds them all (see blocked):
// no extension is tested on its own. The survivors need no deduplication:
// if t ∪ {v} = t' ∪ {v'} with t ≠ t', then v' ∈ t owns a private edge of
// the extension that t' = (t ∪ {v}) \ {v'} would have to hit — it cannot;
// and an extension strictly contains a transversal of the old edges, so it
// equals no kept (minimal) one. For the same reason an extension is never
// a set Next returned earlier: that set either is still current (kept) or
// misses an edge added since.
//
// The kept transversals are a subsequence of the canonical list, so they
// are compacted in place and stay in order: only the extensions are
// sorted, then merged in from the back. All sets are distinct, so the
// merge has no ties to break and the list is the one a full sort gives.
func (e *Enumerator) AddEdge(edge bitset.AttrSet) {
	edge = edge.Intersect(e.universe)
	old := e.edges
	e.edges = append(e.edges, edge)
	if edge.IsEmpty() {
		e.dead = true
		e.mts = e.mts[:0]
		return
	}
	if e.dead {
		return
	}
	kept, ext := 0, e.ext[:0]
	for _, t := range e.mts {
		if t.set.Intersects(edge) {
			e.mts[kept] = t
			kept++
			continue
		}
		for rest := edge &^ blocked(t.set, old); rest != 0; rest &= rest - 1 {
			ext = append(ext, entry{set: t.set | rest&-rest})
		}
	}
	slices.SortFunc(ext, func(a, b entry) int { return bitset.Compare(a.set, b.set) })
	mts := slices.Grow(e.mts[:kept], len(ext))[:kept+len(ext)]
	i, j := kept-1, len(ext)-1
	for k := len(mts) - 1; j >= 0; k-- {
		if i >= 0 && bitset.Compare(mts[i].set, ext[j].set) > 0 {
			mts[k] = mts[i]
			i--
		} else {
			mts[k] = ext[j]
			j--
		}
	}
	e.mts, e.ext = mts, ext
	e.head = 0
}

// blocked returns the vertices v for which t ∪ {v} is not a minimal
// transversal of edges ∪ {E}, for t a minimal transversal of edges and E
// a new edge t misses, v ∈ E. Such an extension hits every edge, and v
// owns E as a private edge; a vertex u of t keeps a private edge exactly
// when one of its private edges under t avoids v. So the extension is
// minimal iff v lies in no intersection of one vertex's private edges —
// and blocked is the union of those intersections, found in one pass.
func blocked(t bitset.AttrSet, edges []bitset.AttrSet) bitset.AttrSet {
	var priv [bitset.MaxAttrs]bitset.AttrSet
	for rest := t; rest != 0; rest &= rest - 1 {
		priv[bits.TrailingZeros64(uint64(rest))] = ^bitset.AttrSet(0)
	}
	for _, ed := range edges {
		if x := ed & t; x&(x-1) == 0 && x != 0 {
			priv[bits.TrailingZeros64(uint64(x))] &= ed
		}
	}
	var b bitset.AttrSet
	for rest := t; rest != 0; rest &= rest - 1 {
		b |= priv[bits.TrailingZeros64(uint64(rest))]
	}
	return b
}

// Minimal reports whether s is a minimal transversal of the edge family:
// it hits every edge and each of its vertices has a private edge — one s
// meets in that vertex alone. One pass: crit collects the vertices owning
// a private edge; s is minimal iff that is all of s. AddEdge does not
// call it (see blocked); the tests check AddEdge against it.
func Minimal(s bitset.AttrSet, edges []bitset.AttrSet) bool {
	var crit bitset.AttrSet
	for _, ed := range edges {
		x := ed & s
		if x == 0 {
			return false
		}
		if x&(x-1) == 0 {
			crit |= x
		}
	}
	return crit == s
}

// Next returns a minimal transversal of the current hypergraph that has
// not been returned before, marking it handed out. ok is false when all
// current minimal transversals have been handed out (the caller may still
// AddEdge and ask again).
func (e *Enumerator) Next() (t bitset.AttrSet, ok bool) {
	for ; e.head < len(e.mts); e.head++ {
		if c := &e.mts[e.head]; !c.done {
			c.done = true
			return c.set, true
		}
	}
	return bitset.Empty(), false
}
