// Package schema models database schemas S = {Ω1,...,Ωm} and join trees
// (paper Def. 3.1), with the acyclicity test (GYO reduction), join-tree
// construction (maximum-weight spanning tree over the intersection graph),
// the support MVD(T) of a join tree, and the width / intersection-width
// quality measures of Sec. 8.4.
package schema

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/mvd"
)

// Schema is a set of relation schemas over a common universe, with no
// schema contained in another (the paper's definition, Sec. 3.1).
// Construct values with New; treat them as immutable.
type Schema struct {
	Relations []bitset.AttrSet // canonical: sorted by (cardinality, value)
}

// New canonicalizes a copy of a list of relation schemas with Canonicalize.
// It errors when no non-empty set remains.
func New(relations []bitset.AttrSet) (Schema, error) {
	out := Canonicalize(slices.Clone(relations))
	if len(out) == 0 {
		return Schema{}, errors.New("schema: no relations")
	}
	return Schema{Relations: out}, nil
}

// Canonicalize puts rels in canonical form in place and returns the
// prefix that holds it: sorted by bitset.Compare, with empty, duplicate
// and subsumed sets (Ωi ⊆ Ωj, i ≠ j) dropped.
func Canonicalize(rels []bitset.AttrSet) []bitset.AttrSet {
	bitset.SortSets(rels)
	rels = slices.Compact(rels)
	out := rels[:0]
	for i, r := range rels {
		// A proper superset of r has more attributes, so it sorts later.
		if !r.IsEmpty() && !slices.ContainsFunc(rels[i+1:], r.SubsetOf) {
			out = append(out, r)
		}
	}
	return out
}

// MustNew is New that panics on error.
func MustNew(relations ...bitset.AttrSet) Schema {
	s, err := New(relations)
	if err != nil {
		panic(err)
	}
	return s
}

// M returns the number of relations.
func (s Schema) M() int { return len(s.Relations) }

// Attrs returns the universe χ(S) = ⋃ Ωi.
func (s Schema) Attrs() bitset.AttrSet {
	var out bitset.AttrSet
	for _, r := range s.Relations {
		out = out.Union(r)
	}
	return out
}

// Width returns max |Ωi| (treewidth + 1; Sec. 8.4).
func (s Schema) Width() int {
	w := 0
	for _, r := range s.Relations {
		if l := r.Len(); l > w {
			w = l
		}
	}
	return w
}

// IntersectionWidth returns max over pairs of |Ωi ∩ Ωj| (Sec. 8.4).
func (s Schema) IntersectionWidth() int {
	w := 0
	for i := range s.Relations {
		for j := i + 1; j < len(s.Relations); j++ {
			if l := s.Relations[i].Intersect(s.Relations[j]).Len(); l > w {
				w = l
			}
		}
	}
	return w
}

// Cells returns the total cell count of the decomposition, assuming each
// relation Ωi holds rowCount(Ωi) rows; used by the storage-savings metric.
func (s Schema) Cells(rowCount func(bitset.AttrSet) int) int {
	total := 0
	for _, r := range s.Relations {
		total += rowCount(r) * r.Len()
	}
	return total
}

// Equal reports equality of canonical forms.
func (s Schema) Equal(o Schema) bool {
	if len(s.Relations) != len(o.Relations) {
		return false
	}
	for i := range s.Relations {
		if s.Relations[i] != o.Relations[i] {
			return false
		}
	}
	return true
}

// String renders the schema in letter notation: {ABD, ACD, BDE, AF}.
func (s Schema) String() string {
	parts := make([]string, len(s.Relations))
	for i, r := range s.Relations {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Format renders the schema with attribute names.
func (s Schema) Format(names []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Relations {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('[')
		b.WriteString(r.Format(names))
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// IsAcyclic reports whether the schema admits a join tree, decided by GYO
// reduction: repeatedly (1) remove attributes that occur in exactly one
// relation and (2) remove relations contained in another; the schema is
// acyclic iff everything reduces away.
func (s Schema) IsAcyclic() bool {
	edges := append([]bitset.AttrSet(nil), s.Relations...)
	for {
		changed := false
		// Rule 1: drop attributes occurring in exactly one edge.
		var occurrence [bitset.MaxAttrs]int
		for _, e := range edges {
			e.ForEach(func(a int) bool {
				occurrence[a]++
				return true
			})
		}
		for i, e := range edges {
			trimmed := e
			e.ForEach(func(a int) bool {
				if occurrence[a] == 1 {
					trimmed = trimmed.Remove(a)
				}
				return true
			})
			if trimmed != e {
				edges[i] = trimmed
				changed = true
			}
		}
		// Rule 2: drop empty edges and edges contained in another.
		kept := edges[:0]
		for i, e := range edges {
			if e.IsEmpty() {
				changed = true
				continue
			}
			contained := false
			for j, f := range edges {
				if i == j || f.IsEmpty() {
					continue
				}
				if e.SubsetOf(f) && (e != f || i > j) {
					contained = true
					break
				}
			}
			if contained {
				changed = true
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
		if len(edges) <= 1 {
			return true
		}
		if !changed {
			return false
		}
	}
}

// JoinTree is a tree over bag indices with the running intersection
// property (Def. 3.1). Bags correspond to the relations of a schema.
type JoinTree struct {
	Bags  []bitset.AttrSet
	Edges [][2]int // m-1 undirected edges over bag indices
	adj   [][]int
}

// BuildJoinTree constructs a join tree for the schema via a maximum-weight
// spanning tree of the intersection graph (weight |Ωi∩Ωj|), which is a
// join tree exactly when the schema is acyclic; the running intersection
// property is verified and an error returned otherwise.
func BuildJoinTree(s Schema) (*JoinTree, error) {
	m := s.M()
	bags := append([]bitset.AttrSet(nil), s.Relations...)
	if m == 1 {
		return newJoinTree(bags, nil), nil
	}
	// Prim's algorithm on the complete graph with weights |Ωi∩Ωj|.
	inTree := make([]bool, m)
	bestW := make([]int, m)
	bestTo := make([]int, m)
	for i := range bestW {
		bestW[i] = -1
		bestTo[i] = -1
	}
	inTree[0] = true
	for j := 1; j < m; j++ {
		bestW[j] = bags[0].Intersect(bags[j]).Len()
		bestTo[j] = 0
	}
	edges := make([][2]int, 0, m-1)
	for len(edges) < m-1 {
		pick, pickW := -1, -1
		for j := 0; j < m; j++ {
			if !inTree[j] && bestW[j] > pickW {
				pick, pickW = j, bestW[j]
			}
		}
		if pick < 0 {
			return nil, errors.New("schema: disconnected intersection graph")
		}
		inTree[pick] = true
		u, v := bestTo[pick], pick
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]int{u, v})
		for j := 0; j < m; j++ {
			if !inTree[j] {
				if w := bags[pick].Intersect(bags[j]).Len(); w > bestW[j] {
					bestW[j] = w
					bestTo[j] = pick
				}
			}
		}
	}
	t := newJoinTree(bags, edges)
	if err := t.VerifyRunningIntersection(); err != nil {
		return nil, fmt.Errorf("schema: %v is not acyclic: %w", s, err)
	}
	return t, nil
}

func newJoinTree(bags []bitset.AttrSet, edges [][2]int) *JoinTree {
	adj := make([][]int, len(bags))
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, a := range adj {
		slices.Sort(a)
	}
	return &JoinTree{Bags: bags, Edges: edges, adj: adj}
}

// Adjacency returns the neighbor lists of the tree.
func (t *JoinTree) Adjacency() [][]int { return t.adj }

// Attrs returns χ(T), the union of all bags.
func (t *JoinTree) Attrs() bitset.AttrSet {
	var out bitset.AttrSet
	for _, b := range t.Bags {
		out = out.Union(b)
	}
	return out
}

// Schema returns the schema defined by the tree's bags.
func (t *JoinTree) Schema() Schema {
	s, err := New(t.Bags)
	if err != nil {
		panic(err)
	}
	return s
}

// VerifyRunningIntersection checks Def. 3.1: for every attribute, the bags
// containing it induce a connected subtree.
func (t *JoinTree) VerifyRunningIntersection() error {
	attrs := t.Attrs()
	var err error
	visited := make([]bool, len(t.Bags))
	queue := make([]int, 0, len(t.Bags))
	attrs.ForEach(func(a int) bool {
		holders := 0
		start := -1
		for i, b := range t.Bags {
			if b.Contains(a) {
				holders++
				start = i
			}
		}
		if holders <= 1 {
			return true
		}
		// BFS restricted to bags containing a.
		reached := 1
		clear(visited)
		visited[start] = true
		queue = append(queue[:0], start)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range t.adj[u] {
				if !visited[v] && t.Bags[v].Contains(a) {
					visited[v] = true
					reached++
					queue = append(queue, v)
				}
			}
		}
		if reached != holders {
			err = fmt.Errorf("attribute %d violates running intersection", a)
			return false
		}
		return true
	})
	return err
}

// SubtreeAttrs returns, for the edge (u,v), the attribute sets χ(Tu) and
// χ(Tv) of the two subtrees obtained by removing the edge.
func (t *JoinTree) SubtreeAttrs(u, v int) (bitset.AttrSet, bitset.AttrSet) {
	side := func(root, banned int) bitset.AttrSet {
		var out bitset.AttrSet
		visited := make([]bool, len(t.Bags))
		visited[banned] = true
		stack := []int{root}
		visited[root] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = out.Union(t.Bags[x])
			for _, y := range t.adj[x] {
				if !visited[y] {
					visited[y] = true
					stack = append(stack, y)
				}
			}
		}
		return out
	}
	return side(u, v), side(v, u)
}

// Support returns MVD(T): one MVD per tree edge, with key χ(u)∩χ(v) and
// dependents the two subtree attribute sets minus the key (Sec. 3.1,
// Example 3.2). Edges whose subtrees both reduce to the key are skipped
// (they would be degenerate MVDs).
func (t *JoinTree) Support() []mvd.MVD {
	var out []mvd.MVD
	for _, e := range t.Edges {
		u, v := e[0], e[1]
		key := t.Bags[u].Intersect(t.Bags[v])
		left, right := t.SubtreeAttrs(u, v)
		dl, dr := left.Diff(key), right.Diff(key)
		if dl.IsEmpty() || dr.IsEmpty() {
			continue
		}
		m, err := mvd.New(key, []bitset.AttrSet{dl, dr})
		if err != nil {
			continue // overlapping subtrees: cannot happen with RIP
		}
		out = append(out, m)
	}
	mvd.Sort(out)
	return out
}

// DepthFirstOrder returns a depth-first enumeration of bag indices rooted
// at bag 0 together with, for each non-root bag in that order, the
// separator Δi = χ(parent(ui)) ∩ χ(ui) (Thm. 5.1). parents[i] is the
// parent bag index (-1 for the root).
func (t *JoinTree) DepthFirstOrder() (order []int, parents []int) {
	n := len(t.Bags)
	order = make([]int, 0, n)
	parents = make([]int, n)
	for i := range parents {
		parents[i] = -1
	}
	visited := make([]bool, n)
	var dfs func(u int)
	dfs = func(u int) {
		visited[u] = true
		order = append(order, u)
		for _, v := range t.adj[u] {
			if !visited[v] {
				parents[v] = u
				dfs(v)
			}
		}
	}
	dfs(0)
	return order, parents
}

// String renders bags and edges compactly.
func (t *JoinTree) String() string {
	var b strings.Builder
	b.WriteString("bags: ")
	for i, bag := range t.Bags {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d=%v", i, bag)
	}
	b.WriteString("; edges: ")
	for i, e := range t.Edges {
		if i > 0 {
			b.WriteString(", ")
		}
		sep := t.Bags[e[0]].Intersect(t.Bags[e[1]])
		fmt.Fprintf(&b, "%d-%d(%v)", e[0], e[1], sep)
	}
	return b.String()
}
