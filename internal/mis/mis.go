// Package mis enumerates the maximal independent sets of an undirected
// graph, the engine behind ASMiner (paper Sec. 7): maximal sets of
// pairwise-compatible MVDs are exactly the maximal independent sets of the
// incompatibility graph (Eq. 15).
//
// EnumerateBK runs Bron–Kerbosch with pivoting on the complement graph
// (maximal independent sets of G = maximal cliques of Ḡ): output-sensitive
// and fast in practice. It invokes a callback per set and stops early when
// the callback returns false. The paper's polynomial-delay scheme
// ([11, 22], Thm. 7.3) is not implemented; BK is checked against brute
// force instead.
package mis

import (
	"math/bits"
	"sort"

	"repro/internal/par"
)

// Graph is a simple undirected graph on vertices 0..n-1.
type Graph struct {
	n   int
	adj []words // adjacency bitsets, self-loops never set; rows of one backing array
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	nw := (n + 63) / 64
	backing := make([]uint64, n*nw)
	g := &Graph{n: n, adj: make([]words, n)}
	for i := range g.adj {
		g.adj[i] = backing[i*nw : (i+1)*nw : (i+1)*nw]
	}
	return g
}

// FillUpper builds the edge set of an empty graph from its upper
// triangle and returns the number of edges. Up to workers goroutines
// (par.For) each take a row filler from newFiller and call it on the
// rows they claim, so no two fills share a row: fill(i, row) sets in row
// — vertex i's adjacency words — exactly the bits j > i of i's
// neighbours, and returns false to abandon the build. After the join the
// lower triangle is mirrored from the upper one by 64×64 bit-block
// transposes. An abandoned build reports ok = false and leaves the graph
// partly filled.
func (g *Graph) FillUpper(workers int, newFiller func() func(i int, row []uint64) bool) (edges int64, ok bool) {
	if !par.For(g.n, workers, func() (func(int) bool, func()) {
		fill := newFiller()
		return func(i int) bool { return fill(i, g.adj[i]) }, nil
	}) {
		return 0, false
	}
	for _, row := range g.adj {
		edges += int64(row.count())
	}
	g.mirrorUpper()
	return edges, true
}

// mirrorUpper ORs the transpose of the upper triangle into the lower one,
// a 64×64 block at a time: the block of rows 64b…64b+63 in word c ≥ b
// lands in rows 64c…64c+63, word b. A diagonal block takes its own
// transpose, which only sets bits below its diagonal.
func (g *Graph) mirrorUpper() {
	nw := (g.n + 63) / 64
	var blk [64]uint64
	for b := 0; b < nw; b++ {
		rows := g.adj[64*b : min(64*b+64, g.n)]
		for c := b; c < nw; c++ {
			set := uint64(0)
			for r, row := range rows {
				blk[r] = row[c]
				set |= row[c]
			}
			if set == 0 {
				continue
			}
			clear(blk[len(rows):])
			transpose64(&blk)
			for r, row := range g.adj[64*c : min(64*c+64, g.n)] {
				row[b] |= blk[r]
			}
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place — bit c of a[r]
// moves to bit r of a[c] — by swapping ever smaller off-diagonal blocks
// (Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	for j, m := 32, uint64(0x00000000FFFFFFFF); j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}; self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u].set(v)
	g.adj[v].set(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u].has(v) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.adj[v].count() }

// EnumerateBK enumerates all maximal independent sets, invoking emit for
// each (vertices sorted ascending). Enumeration stops early if emit
// returns false. The empty graph has exactly one maximal independent set,
// the empty set (so ASMiner still yields the trivial schema {Ω} when no
// MVDs were mined, matching the paper's Fig. 10(a)).
func (g *Graph) EnumerateBK(emit func(set []int) bool) {
	if g.n == 0 {
		emit([]int{})
		return
	}
	p := newWords(g.n)
	for v := 0; v < g.n; v++ {
		p.set(v)
	}
	x := newWords(g.n)
	var r []int
	g.bk(r, p, x, emit)
}

// bk is Bron–Kerbosch with pivot over the complement graph, expressed with
// original-graph adjacency: the complement neighborhood of v within a set
// S is S \ N(v) \ {v}.
func (g *Graph) bk(r []int, p, x words, emit func([]int) bool) bool {
	if p.empty() && x.empty() {
		out := append([]int(nil), r...)
		sort.Ints(out)
		return emit(out)
	}
	// Pivot: u ∈ P∪X maximizing |P ∩ N̄(u)| = |P \ N(u) \ {u}|.
	pivot, best := -1, -1
	consider := func(u int) {
		cnt := p.diffCount(g.adj[u], u)
		if cnt > best {
			best, pivot = cnt, u
		}
	}
	p.forEach(consider)
	x.forEach(consider)
	// Candidates: P \ N̄(pivot) = P ∩ (N(pivot) ∪ {pivot}).
	cands := p.clone()
	cands.and(g.adj[pivot])
	if p.has(pivot) {
		cands.set(pivot)
	}
	cont := true
	cands.forEach(func(v int) {
		if !cont {
			return
		}
		// Recurse on R+v, P ∩ N̄(v), X ∩ N̄(v).
		np := p.clone()
		np.andNot(g.adj[v])
		np.clear(v)
		nx := x.clone()
		nx.andNot(g.adj[v])
		nx.clear(v)
		if !g.bk(append(r, v), np, nx, emit) {
			cont = false
			return
		}
		p.clear(v)
		x.set(v)
	})
	return cont
}

// IsIndependent reports whether the given vertex set is independent.
func (g *Graph) IsIndependent(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is independent and no vertex
// can be added while keeping independence.
func (g *Graph) IsMaximalIndependent(set []int) bool {
	if !g.IsIndependent(set) {
		return false
	}
	in := newWords(g.n)
	for _, v := range set {
		in.set(v)
	}
	for v := 0; v < g.n; v++ {
		if in.has(v) {
			continue
		}
		ok := true
		for _, u := range set {
			if g.HasEdge(u, v) {
				ok = false
				break
			}
		}
		if ok {
			return false
		}
	}
	return true
}

// words is a fixed-capacity dynamic bitset (the graph may have far more
// than 64 vertices: one vertex per mined MVD).
type words []uint64

func newWords(n int) words { return make(words, (n+63)/64) }

func (w words) set(i int)      { w[i/64] |= 1 << uint(i%64) }
func (w words) clear(i int)    { w[i/64] &^= 1 << uint(i%64) }
func (w words) has(i int) bool { return w[i/64]&(1<<uint(i%64)) != 0 }

func (w words) empty() bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

func (w words) count() int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

func (w words) clone() words {
	out := make(words, len(w))
	copy(out, w)
	return out
}

func (w words) and(o words) {
	for i := range w {
		w[i] &= o[i]
	}
}

func (w words) andNot(o words) {
	for i := range w {
		w[i] &^= o[i]
	}
}

// diffCount returns |w \ o \ {skip}|.
func (w words) diffCount(o words, skip int) int {
	c := 0
	for i := range w {
		c += bits.OnesCount64(w[i] &^ o[i])
	}
	if w.has(skip) && !o.has(skip) {
		c--
	}
	return c
}

func (w words) forEach(f func(i int)) {
	for wi, x := range w {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			f(wi*64 + b)
			x &^= 1 << uint(b)
		}
	}
}
