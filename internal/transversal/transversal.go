// Package transversal enumerates minimal transversals (minimal hitting
// sets) of a growing hypergraph.
//
// MineMinSeps (paper Fig. 5, after Gunopulos et al.) interleaves two
// operations: add a newly found minimal separator as a hyperedge, and ask
// for a not-yet-processed minimal transversal of the current hypergraph.
// This package provides exactly that interface. Edges are added one at a
// time, so the transversal set is maintained incrementally with Berge's
// multiplication: when edge E arrives, transversals already hitting E
// survive, the others are extended by one vertex of E, and non-minimal
// results are filtered with the private-witness test.
//
// The theoretically best algorithm (Fredman–Khachiyan) has quasi-
// polynomial delay; Berge's is worst-case exponential in |edges| but is
// simple, incremental, and fast at the hypergraph sizes mining produces —
// the paper itself bounds the number of wasted transversals between
// discoveries by the negative border |BD⁻(S)| ≤ n·|S| (Thm. 12.2),
// independent of the enumeration engine.
package transversal

import (
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
	// kept and ext are AddEdge's working storage, reused by the next call:
	// the transversals that survive an edge and the extensions that
	// replace the rest.
	kept, ext []entry
	head      int  // every entry before head has been handed out
	dead      bool // an empty edge was added: no transversal can hit it
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
// that misses the edge is replaced by its extensions t ∪ {v}, v in the
// edge, of which only the minimal ones survive. The survivors need no
// deduplication: if t ∪ {v} = t' ∪ {v'} with t ≠ t', then v' ∈ t owns a
// private edge of the extension that t' = (t ∪ {v}) \ {v'} would have to
// hit — it cannot; and an extension strictly contains a transversal of the
// old edges, so it equals no kept (minimal) one. For the same reason an
// extension is never a set Next returned earlier: that set either is still
// current (kept) or misses an edge added since.
//
// The kept transversals are a subsequence of the canonical list, so they
// are in order already: only the extensions are sorted, and the two runs
// are merged. All sets are distinct, so the merge has no ties to break and
// the list is the one a full sort gives.
func (e *Enumerator) AddEdge(edge bitset.AttrSet) {
	edge = edge.Intersect(e.universe)
	e.edges = append(e.edges, edge)
	if edge.IsEmpty() {
		e.dead = true
		e.mts = e.mts[:0]
		return
	}
	if e.dead {
		return
	}
	kept, ext := e.kept[:0], e.ext[:0]
	for _, t := range e.mts {
		if t.set.Intersects(edge) {
			kept = append(kept, t)
			continue
		}
		for rest := edge; rest != 0; rest &= rest - 1 {
			s := t.set | rest&-rest
			if Minimal(s, e.edges) {
				ext = append(ext, entry{set: s})
			}
		}
	}
	slices.SortFunc(ext, func(a, b entry) int { return bitset.Compare(a.set, b.set) })
	next := e.mts[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(ext) {
		if bitset.Compare(kept[i].set, ext[j].set) < 0 {
			next = append(next, kept[i])
			i++
		} else {
			next = append(next, ext[j])
			j++
		}
	}
	next = append(append(next, kept[i:]...), ext[j:]...)
	e.mts, e.kept, e.ext = next, kept, ext
	e.head = 0
}

// Minimal reports whether s is a minimal transversal of the edge family:
// it hits every edge and each of its vertices has a private edge — one s
// meets in that vertex alone. One pass: crit collects the vertices owning
// a private edge; s is minimal iff that is all of s.
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
