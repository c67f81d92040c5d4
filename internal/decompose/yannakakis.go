package decompose

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/pli"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Yannakakis' algorithm is the paper's headline application of acyclic
// schemas (Sec. 1): once a relation is decomposed by a join tree, the
// join can be fully reduced with two semijoin sweeps and then evaluated
// without ever producing a dangling intermediate tuple. This file
// implements the full reducer and a reduction-based join evaluator over
// the decomposition produced by Decompose.

// Decomposition is a relation projected onto a join tree's bags.
type Decomposition struct {
	Tree        *schema.JoinTree
	Projections []*relation.Relation // Projections[i] = R[Bags[i]], deduped
}

// Decompose projects o's relation onto every bag of the schema's join
// tree. The rows of R[Ωi] are Ωi's class representatives from o's PLI
// cache (pli.Cache.Classes) — ascending, so they are the first
// occurrences a grouping projection keeps, in the same order — read off a
// resident partition or counted from the bag's operands, the tables
// Analyze ranks over.
func Decompose(o *entropy.Oracle, s schema.Schema) (*Decomposition, error) {
	r := o.Relation()
	if s.Attrs() != r.AllAttrs() {
		return nil, fmt.Errorf("decompose: schema %v does not cover the relation", s)
	}
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	projections := make([]*relation.Relation, len(tree.Bags))
	a := pli.GetArena()
	defer pli.PutArena(a)
	for i, bag := range tree.Bags {
		reps := o.Cache().Classes(a, bag, pli.ClassReps).Reps
		rows := make([]int, len(reps))
		for k, row := range reps {
			rows[k] = int(row)
		}
		projections[i] = r.ProjectRows(rows, bag)
	}
	return &Decomposition{Tree: tree, Projections: projections}, nil
}

// Cells returns the storage footprint of the decomposition.
func (d *Decomposition) Cells() int {
	total := 0
	for _, p := range d.Projections {
		total += p.Cells()
	}
	return total
}

// FullReduce runs Yannakakis' two semijoin sweeps (leaves→root, then
// root→leaves), removing every tuple that cannot participate in the full
// join. It returns a new Decomposition; the receiver is unchanged. After
// reduction, every remaining tuple of every bag appears in at least one
// join result.
func (d *Decomposition) FullReduce() *Decomposition {
	tree := d.Tree
	reduced := append([]*relation.Relation(nil), d.Projections...)
	order, parents := tree.DepthFirstOrder()

	// Bottom-up: semijoin each parent with each child.
	for k := len(order) - 1; k >= 1; k-- {
		u := order[k]
		p := parents[u]
		sep := tree.Bags[u].Intersect(tree.Bags[p])
		reduced[p] = semijoin(reduced[p], tree.Bags[p], reduced[u], tree.Bags[u], sep)
	}
	// Top-down: semijoin each child with its parent.
	for _, u := range order[1:] {
		p := parents[u]
		sep := tree.Bags[u].Intersect(tree.Bags[p])
		reduced[u] = semijoin(reduced[u], tree.Bags[u], reduced[p], tree.Bags[p], sep)
	}
	return &Decomposition{Tree: tree, Projections: reduced}
}

// semijoin returns left ⋉ right on the shared attribute set sep, where
// left/right hold the attributes of leftBag and rightBag; tuples match by
// string value.
func semijoin(left *relation.Relation, leftBag bitset.AttrSet,
	right *relation.Relation, rightBag bitset.AttrSet, sep bitset.AttrSet) *relation.Relation {
	if sep.IsEmpty() {
		// Disjoint bags: the semijoin keeps everything iff right is
		// non-empty, nothing otherwise.
		if right.NumRows() > 0 {
			return left
		}
		return left.Head(0)
	}
	rightCols := projColumns(rightBag, sep)
	present := make(map[string]struct{}, right.NumRows())
	for i := 0; i < right.NumRows(); i++ {
		present[valueKey(right, i, rightCols)] = struct{}{}
	}
	leftCols := projColumns(leftBag, sep)
	var keep []int
	for i := 0; i < left.NumRows(); i++ {
		if _, ok := present[valueKey(left, i, leftCols)]; ok {
			keep = append(keep, i)
		}
	}
	return left.SelectRows(keep)
}

// JoinSize counts |⋈ᵢ Projections[i]| on this decomposition by bottom-up
// counting: each tuple of a bag carries the product over children of the
// summed weights of matching child tuples, and the total is the weight sum
// at the root. Projections may be hand-built, reloaded or semijoin-reduced
// — they share no base rows — so tuples match by string value; ranking a
// schema over its base relation is AnalyzeAll's job, on row classes.
func (d *Decomposition) JoinSize() float64 {
	tree, projections := d.Tree, d.Projections
	if len(tree.Bags) == 1 {
		return float64(projections[0].NumRows())
	}
	order, parents := tree.DepthFirstOrder()
	// messages[u] maps the separator key (toward u's parent) to the summed
	// weight of u's subtree tuples with that separator value.
	messages := make([]map[string]float64, len(tree.Bags))
	childrenOf := make([][]int, len(tree.Bags))
	for _, u := range order[1:] {
		childrenOf[parents[u]] = append(childrenOf[parents[u]], u)
	}
	// Process in reverse depth-first order: children before parents.
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		proj := projections[u]
		bagU := tree.Bags[u]
		// Weight of each tuple of u = product of children's messages.
		weights := make([]float64, proj.NumRows())
		for i := range weights {
			weights[i] = 1
		}
		for _, c := range childrenOf[u] {
			sep := bagU.Intersect(tree.Bags[c])
			sepIdx := projColumns(bagU, sep)
			msg := messages[c]
			for i := range weights {
				if weights[i] == 0 {
					continue
				}
				weights[i] *= msg[valueKey(proj, i, sepIdx)]
			}
		}
		if u == order[0] {
			return sum(weights)
		}
		sep := bagU.Intersect(tree.Bags[parents[u]])
		sepIdx := projColumns(bagU, sep)
		msg := make(map[string]float64)
		for i, w := range weights {
			if w != 0 {
				msg[valueKey(proj, i, sepIdx)] += w
			}
		}
		messages[u] = msg
	}
	return 0 // unreachable: the root returns inside the loop
}

// projColumns maps an attribute subset of a bag to column indices within
// the bag's projection (whose columns follow increasing attribute index).
func projColumns(bag, subset bitset.AttrSet) []int {
	cols := make([]int, 0, subset.Len())
	pos := 0
	bag.ForEach(func(a int) bool {
		if subset.Contains(a) {
			cols = append(cols, pos)
		}
		pos++
		return true
	})
	return cols
}

// valueKey builds a comparable key from the given columns of row i, out of
// string values so keys stay comparable across relations that share no
// dictionaries. Every value is length-prefixed: a terminator byte would
// not be injective, since a value may contain it.
func valueKey(r *relation.Relation, i int, cols []int) string {
	buf := make([]byte, 0, 16*len(cols))
	for _, j := range cols {
		v := r.Value(i, j)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return string(buf)
}

// naturalJoin joins two relations on their shared column names, comparing
// string values.
func naturalJoin(a, b *relation.Relation) *relation.Relation {
	var sharedA, sharedB, restB []int
	for jb, name := range b.Names() {
		if ja := a.AttrIndex(name); ja >= 0 {
			sharedA = append(sharedA, ja)
			sharedB = append(sharedB, jb)
		} else {
			restB = append(restB, jb)
		}
	}
	names := append([]string(nil), a.Names()...)
	for _, jb := range restB {
		names = append(names, b.Name(jb))
	}
	out := relation.NewBuilder(names)
	// Hash b by shared values.
	index := make(map[string][]int, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		k := valueKey(b, i, sharedB)
		index[k] = append(index[k], i)
	}
	for i := 0; i < a.NumRows(); i++ {
		for _, ib := range index[valueKey(a, i, sharedA)] {
			row := make([]string, 0, len(names))
			row = append(row, a.Row(i)...)
			for _, jb := range restB {
				row = append(row, b.Value(ib, jb))
			}
			out.AddRow(row)
		}
	}
	return out.Relation()
}

// Join materializes ⋈ᵢ Projections[i] with Yannakakis' algorithm: full
// reduction first (so no dangling intermediate tuple is ever produced),
// then pairwise joins along a depth-first order of the tree. The result
// has the tree's attributes in increasing index order. Output size equals
// JoinSize(); callers concerned about blow-up should check it first.
func (d *Decomposition) Join() *relation.Relation {
	red := d.FullReduce()
	tree := red.Tree
	order, _ := tree.DepthFirstOrder()
	acc := red.Projections[order[0]]
	accAttrs := tree.Bags[order[0]]
	for _, u := range order[1:] {
		acc = naturalJoin(acc, red.Projections[u])
		accAttrs = accAttrs.Union(tree.Bags[u])
	}
	// Restore canonical column order (naturalJoin appends new columns).
	want := make([]string, 0, accAttrs.Len())
	proto := relationNames(accAttrs, d)
	want = append(want, proto...)
	b := relation.NewBuilder(want)
	idx := make([]int, len(want))
	for j, name := range want {
		idx[j] = acc.AttrIndex(name)
	}
	for i := 0; i < acc.NumRows(); i++ {
		row := make([]string, len(want))
		for j, src := range idx {
			row[j] = acc.Value(i, src)
		}
		b.AddRow(row)
	}
	return b.Relation().Dedup()
}

// relationNames resolves attribute names for the union of bags, using the
// projections' column names (each projection's columns follow increasing
// attribute index within its bag).
func relationNames(attrs bitset.AttrSet, d *Decomposition) []string {
	byAttr := map[int]string{}
	for i, bag := range d.Tree.Bags {
		pos := 0
		proj := d.Projections[i]
		bag.ForEach(func(a int) bool {
			byAttr[a] = proj.Name(pos)
			pos++
			return true
		})
	}
	out := make([]string, 0, attrs.Len())
	attrs.ForEach(func(a int) bool {
		out = append(out, byAttr[a])
		return true
	})
	return out
}

// WriteCSVs materializes the decomposition as one CSV file per bag in
// dir, named by the bag's attribute names joined with underscores (e.g.
// "A_B_D.csv"). The directory must exist. Two bags whose names join to
// the same file name (columns A, B and A_B give {A,B} and {A_B} both
// "A_B.csv") are an error, reported before any file is written.
func (d *Decomposition) WriteCSVs(dir string) error {
	names := make([]string, len(d.Projections))
	bagOf := make(map[string]int, len(d.Projections))
	for i, proj := range d.Projections {
		names[i] = strings.Join(proj.Names(), "_") + ".csv"
		if j, taken := bagOf[names[i]]; taken {
			return fmt.Errorf("decompose: bags {%s} and {%s} would both be written to %s",
				strings.Join(d.Projections[j].Names(), ","), strings.Join(proj.Names(), ","), names[i])
		}
		bagOf[names[i]] = i
	}
	for i, proj := range d.Projections {
		f, err := os.Create(filepath.Join(dir, names[i]))
		if err != nil {
			return err
		}
		if err := proj.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("decompose: writing bag %d: %w", i, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// IsGloballyConsistent reports whether the decomposition equals its full
// reduction, i.e. no projection contains a dangling tuple. A lossless
// decomposition of a relation is always globally consistent (each
// projected tuple extends to a full row of R).
func (d *Decomposition) IsGloballyConsistent() bool {
	red := d.FullReduce()
	for i := range d.Projections {
		if d.Projections[i].NumRows() != red.Projections[i].NumRows() {
			return false
		}
	}
	return true
}
