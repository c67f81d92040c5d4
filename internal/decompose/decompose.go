// Package decompose evaluates the quality of an acyclic schema as a
// decomposition of a concrete relation: the storage savings S and the
// spurious-tuple rate E that the paper's use case reports (Sec. 8.1), and
// the pareto front over (S, E) that Fig. 11 draws.
//
// Nothing is projected to rank a schema. AnalyzeAll works on equivalence
// classes of rows, read from the PLI cache behind the caller's entropy
// oracle: |R[Ωi]| is the class count of a bag Ωi, and the size of the
// acyclic join ⋈ᵢ R[Ωi] comes from Yannakakis-style weighted message
// passing over the join tree, one bottom-up pass of array sweeps indexed
// by separator class id. Class weights are integer-valued float64s, so the
// count is exact (and independent of summation order) below 2^53; past it
// the sums still add in one fixed order, class representatives upwards.
//
// A batch shares its class tables. Schemes mined from one relation reuse
// a few dozen bags and separators hundreds of times, so AnalyzeAll groups
// the rows once per distinct bag (its class representatives) and once per
// distinct separator (its row → class-id map) and ranks every schema over
// those tables. Most of these sets are chain leaves whose partitions the
// mine never stored; a table is one count pass over the set's two
// operands, and no partition is published for it. A single call
// (Analyze) groups its own bags and separators again every time.
//
// Decompose materializes the projections themselves from the same class
// representatives; a Decomposition then offers Yannakakis' full reducer and
// a reduction-based join over string values, since hand-built or reloaded
// projections share no base rows. A pairwise materializing join is also
// provided; tests use it to validate the count on small inputs.
package decompose

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/par"
	"repro/internal/pli"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Metrics quantifies a decomposition of a relation.
type Metrics struct {
	Relations int // m, number of relations in the schema
	Width     int // largest relation arity (Sec. 8.4)
	IntWidth  int // largest separator size (Sec. 8.4)

	RowsOriginal    int     // |R| after dedup
	CellsOriginal   int     // |R| × |Ω|
	CellsDecomposed int     // Σ |R[Ωi]| × |Ωi|
	SavingsPct      float64 // S = 100 × (1 − decomposed/original)

	JoinSize    float64 // |⋈ R[Ωi]| (exact; float64 to tolerate blow-ups)
	Spurious    float64 // JoinSize − |R|
	SpuriousPct float64 // E = 100 × Spurious / |R|
}

// Analyze computes the decomposition metrics of schema s over o's
// relation: AnalyzeAll of the one schema. The schema must cover exactly
// the attributes of the relation and be acyclic. Callers ranking several
// schemas should batch them, since nothing is shared between calls.
func Analyze(o *entropy.Oracle, s schema.Schema) (Metrics, error) {
	mets, errs := AnalyzeAll(context.Background(), o, []schema.Schema{s}, 1)
	return mets[0], errs[0]
}

// AnalyzeAll computes the metrics of a batch of schemas on up to workers
// goroutines, in three par.For stages: build every join tree; build one
// class table per distinct bag, separator and Ω (classTables); count every
// join over the shared tables. A schema that does not cover the relation,
// or is cyclic, leaves zero Metrics and its error at its index. The tables
// are read from o's PLI cache — a resident partition as it stands, any
// other set by a count pass over its operands — and nothing is published
// for them. Under a cache memory budget the tables are held to the budget
// too: the batch is ranked in runs of consecutive schemas whose tables,
// bounded at 4 bytes a row per set, fit in it (chunkEnd), and sets that
// recur in a later run are grouped again. So a budget changes the cost,
// never the metrics, and the metrics do not depend on workers or on which
// goroutine ranked which schema. Safe for concurrent use on any oracle.
//
// Once ctx is done no stage claims another item: a schema left unranked
// has zero Metrics and ctx.Err() at its index, and every other schema has
// the metrics an unstopped call gives it.
func AnalyzeAll(ctx context.Context, o *entropy.Oracle, schemas []schema.Schema, workers int) ([]Metrics, []error) {
	mets := make([]Metrics, len(schemas))
	errs := make([]error, len(schemas))
	ranked := make([]bool, len(schemas))
	r := o.Relation()
	trees := make([]*schema.JoinTree, len(schemas))
	par.For(len(schemas), workers, func() (func(int) bool, func()) {
		return func(i int) bool {
			if ctx.Err() != nil {
				return false
			}
			trees[i], errs[i] = joinTree(r, schemas[i])
			return true
		}, nil
	})

	for lo := 0; lo < len(trees) && ctx.Err() == nil; {
		hi := chunkEnd(trees, lo, r.NumRows(), o.Cache().MaxBytes())
		if slices.ContainsFunc(trees[lo:hi], func(t *schema.JoinTree) bool { return t != nil }) {
			rank(ctx, o, schemas[lo:hi], trees[lo:hi], mets[lo:hi], ranked[lo:hi], workers)
		}
		lo = hi
	}
	for i := range errs {
		if errs[i] == nil && !ranked[i] {
			errs[i] = ctx.Err()
		}
	}
	return mets, errs
}

// rank fills mets with the metrics of the schemas whose trees are not nil,
// over one set of class tables, and marks each one it fills in ranked. It
// claims no table and no schema once ctx is done.
func rank(ctx context.Context, o *entropy.Oracle, schemas []schema.Schema, trees []*schema.JoinTree, mets []Metrics, ranked []bool, workers int) {
	r := o.Relation()
	t := newClassTables(r.AllAttrs(), trees)
	built := par.For(len(t.sets), workers, func() (func(int) bool, func()) {
		a := pli.GetArena()
		return func(i int) bool {
			if ctx.Err() != nil {
				return false
			}
			set := &t.sets[i]
			set.classes = o.Cache().Classes(a, set.attrs, set.view)
			return true
		}, func() { pli.PutArena(a) }
	})
	if !built {
		return
	}
	for _, set := range t.sets {
		if set.view&pli.ClassIDs != 0 {
			t.maxSep = max(t.maxSep, set.classes.N)
		}
	}

	n := t.of(r.AllAttrs()).N
	par.For(len(schemas), workers, func() (func(int) bool, func()) {
		c := &counter{msg: make([]float64, t.maxSep)}
		return func(i int) bool {
			if ctx.Err() != nil {
				return false
			}
			if trees[i] != nil {
				mets[i], ranked[i] = c.metrics(t, schemas[i], trees[i], n, r.NumCols()), true
			}
			return true
		}, nil
	})
}

// chunkEnd returns the end of the run of trees from lo that AnalyzeAll
// ranks over one set of class tables: every remaining tree when budget is
// 0, else the longest run — of at least one tree that is not nil — whose
// distinct bags and separators, at 4 bytes a row each (no table holds
// more), fit in budget bytes.
func chunkEnd(trees []*schema.JoinTree, lo, rows int, budget int64) int {
	if budget <= 0 {
		return len(trees)
	}
	var sets []bitset.AttrSet
	taken := false
	for hi := lo; hi < len(trees); hi++ {
		if trees[hi] == nil {
			continue
		}
		before := len(sets)
		eachTableSet(trees[hi], func(set bitset.AttrSet, _ pli.ClassView) {
			if !slices.Contains(sets, set) {
				sets = append(sets, set)
			}
		})
		if taken && len(sets) > before && int64(len(sets))*4*int64(rows) > budget {
			return hi
		}
		taken = true
	}
	return len(trees)
}

// joinTree checks that s covers r and returns its join tree.
func joinTree(r *relation.Relation, s schema.Schema) (*schema.JoinTree, error) {
	if s.Attrs() != r.AllAttrs() {
		return nil, fmt.Errorf("decompose: schema %v does not cover the relation's %d attributes", s, r.NumCols())
	}
	return schema.BuildJoinTree(s)
}

// classTables is the shared state of one batch: every distinct attribute
// set whose classes some join tree reads, with the views it is read
// through — representatives for a bag, the id map for a separator Ωu ∩ Ωp
// of a tree edge, the class count alone for Ω — and, once built, its
// table.
type classTables struct {
	sets   []classSet // ascending by attrs, one per set
	maxSep int        // most classes of any separator
}

type classSet struct {
	attrs   bitset.AttrSet
	view    pli.ClassView
	classes pli.Classes
}

// eachTableSet calls f with every bag of tree and every non-empty
// separator of its edges, with the view a table of it is read through.
func eachTableSet(tree *schema.JoinTree, f func(bitset.AttrSet, pli.ClassView)) {
	for _, bag := range tree.Bags {
		f(bag, pli.ClassReps)
	}
	for _, e := range tree.Edges {
		if sep := tree.Bags[e[0]].Intersect(tree.Bags[e[1]]); !sep.IsEmpty() {
			f(sep, pli.ClassIDs)
		}
	}
}

// newClassTables collects Ω and the distinct bags and separators of the
// trees that were built (nil trees are skipped).
func newClassTables(all bitset.AttrSet, trees []*schema.JoinTree) *classTables {
	uses := 1
	for _, tree := range trees {
		if tree != nil {
			uses += len(tree.Bags) + len(tree.Edges)
		}
	}
	sets := append(make([]classSet, 0, uses), classSet{attrs: all})
	for _, tree := range trees {
		if tree != nil {
			eachTableSet(tree, func(set bitset.AttrSet, view pli.ClassView) {
				sets = append(sets, classSet{attrs: set, view: view})
			})
		}
	}
	slices.SortFunc(sets, func(a, b classSet) int { return cmp.Compare(a.attrs, b.attrs) })
	distinct := sets[:1]
	for _, set := range sets[1:] {
		if last := &distinct[len(distinct)-1]; last.attrs == set.attrs {
			last.view |= set.view
		} else {
			distinct = append(distinct, set)
		}
	}
	return &classTables{sets: distinct}
}

// of returns the table of a set the batch collected.
func (t *classTables) of(attrs bitset.AttrSet) *pli.Classes {
	i, _ := slices.BinarySearchFunc(t.sets, attrs, func(set classSet, attrs bitset.AttrSet) int {
		return cmp.Compare(set.attrs, attrs)
	})
	return &t.sets[i].classes
}

// counter is one worker's scratch for counting joins over the shared
// tables: the class weights of the current schema's bags, concatenated,
// and one message vector as long as the batch's largest separator.
type counter struct {
	w   []float64 // class weights of every bag; bag i owns w[off[i]:off[i+1]]
	off []int
	msg []float64 // separator class → summed weight of the child's classes
}

// metrics ranks schema s, whose join tree is tree, over the batch's tables;
// n is |R| after dedup and cols the relation's arity.
func (c *counter) metrics(t *classTables, s schema.Schema, tree *schema.JoinTree, n, cols int) Metrics {
	cellsDecomposed := c.load(t, tree.Bags)
	joinSize := c.joinSize(t, tree)
	m := Metrics{
		Relations:       s.M(),
		Width:           s.Width(),
		IntWidth:        s.IntersectionWidth(),
		RowsOriginal:    n,
		CellsOriginal:   n * cols,
		CellsDecomposed: cellsDecomposed,
		JoinSize:        joinSize,
		Spurious:        joinSize - float64(n),
	}
	if m.CellsOriginal > 0 {
		m.SavingsPct = 100 * (1 - float64(m.CellsDecomposed)/float64(m.CellsOriginal))
	}
	if n > 0 {
		m.SpuriousPct = 100 * m.Spurious / float64(n)
	}
	return m
}

// load sets every class weight of every bag to 1 and returns
// Σ |R[Ωi]| × |Ωi|.
func (c *counter) load(t *classTables, bags []bitset.AttrSet) (cells int) {
	c.off = resize(c.off, len(bags)+1)
	c.off[0] = 0
	for i, bag := range bags {
		k := t.of(bag).N
		cells += k * bag.Len()
		c.off[i+1] = c.off[i] + k
	}
	c.w = resize(c.w, c.off[len(bags)])
	for i := range c.w {
		c.w[i] = 1
	}
	return cells
}

// joinSize returns |⋈ᵢ R[Ωi]| by bottom-up counting over classes: the
// weight of a bag class is the number of join results of the subtree below
// it that extend its tuple. Children come before parents; an edge (u, p)
// with separator X sums u's weights per X-class and multiplies every class
// of p by the sum of its X-class. X ⊆ Ωu ∩ Ωp, so a class's representative
// row carries its X-class. Disjoint bags are the scalar case: one message,
// the child's total.
func (c *counter) joinSize(t *classTables, tree *schema.JoinTree) float64 {
	order, parents := tree.DepthFirstOrder()
	for k := len(order) - 1; k >= 1; k-- {
		u := order[k]
		p := parents[u]
		wU := c.w[c.off[u]:c.off[u+1]]
		wP := c.w[c.off[p]:c.off[p+1]]
		sep := tree.Bags[u].Intersect(tree.Bags[p])
		if sep.IsEmpty() {
			total := sum(wU)
			for i := range wP {
				wP[i] *= total
			}
			continue
		}
		ids := t.of(sep)
		msg := c.msg[:ids.N]
		clear(msg)
		ids.SumByClass(msg, t.of(tree.Bags[u]).Reps, wU)
		ids.ScaleByClass(wP, t.of(tree.Bags[p]).Reps, msg)
	}
	root := order[0]
	return sum(c.w[c.off[root]:c.off[root+1]])
}

// resize returns s with n entries of unspecified contents, reallocating
// only when its capacity falls short.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

func sum(w []float64) float64 {
	total := 0.0
	for _, x := range w {
		total += x
	}
	return total
}

// MaterializeJoin computes ⋈ᵢ R[Ωi] explicitly (set semantics) and returns
// it as a relation over r's full signature. Intended for small inputs and
// validation; the result can be exponentially larger than r.
func MaterializeJoin(r *relation.Relation, s schema.Schema) (*relation.Relation, error) {
	if s.Attrs() != r.AllAttrs() {
		return nil, fmt.Errorf("decompose: schema %v does not cover the relation", s)
	}
	base := r.Dedup()
	// Join in an order that keeps intermediate results connected: follow a
	// join tree's depth-first order.
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	order, _ := tree.DepthFirstOrder()
	acc := base.Project(tree.Bags[order[0]])
	accAttrs := tree.Bags[order[0]]
	for _, u := range order[1:] {
		next := base.Project(tree.Bags[u])
		acc = naturalJoin(acc, next)
		accAttrs = accAttrs.Union(tree.Bags[u])
	}
	if accAttrs != r.AllAttrs() {
		return nil, fmt.Errorf("decompose: join covered %v, want all attributes", accAttrs)
	}
	// Reorder columns to the original signature.
	perm := make([]string, r.NumCols())
	for j := range perm {
		perm[j] = r.Name(j)
	}
	b := relation.NewBuilder(perm)
	for i := 0; i < acc.NumRows(); i++ {
		row := make([]string, len(perm))
		for j, name := range perm {
			row[j] = acc.Value(i, acc.AttrIndex(name))
		}
		b.AddRow(row)
	}
	return b.Relation().Dedup(), nil
}

// Point is a scheme's position in the savings/spurious plane of Fig. 11.
type Point struct {
	Index    int     // caller's scheme index
	Savings  float64 // S, higher is better
	Spurious float64 // E, lower is better
}

// ParetoFront returns the indices of the non-dominated points (maximal
// savings, minimal spurious rate), ordered by increasing spurious rate —
// the line drawn through Fig. 11.
func ParetoFront(points []Point) []Point {
	front := make([]Point, 0, len(points))
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Savings >= p.Savings && q.Spurious <= p.Spurious &&
				(q.Savings > p.Savings || q.Spurious < p.Spurious) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Spurious != front[j].Spurious {
			return front[i].Spurious < front[j].Spurious
		}
		return front[i].Savings > front[j].Savings
	})
	// Drop duplicate positions (identical S,E from different schemes).
	out := front[:0]
	for i, p := range front {
		if i == 0 || p.Savings != front[i-1].Savings || p.Spurious != front[i-1].Spurious {
			out = append(out, p)
		}
	}
	return out
}
