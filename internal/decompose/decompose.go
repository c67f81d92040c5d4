// Package decompose evaluates the quality of an acyclic schema as a
// decomposition of a concrete relation: the storage savings S and the
// spurious-tuple rate E that the paper's use case reports (Sec. 8.1), and
// the pareto front over (S, E) that Fig. 11 draws.
//
// Nothing is projected to rank a schema. Analyze reads the stripped
// partitions of the schema's bags and separators from the PLI cache behind
// the caller's entropy oracle, and works on equivalence classes of rows:
// |R[Ωi]| is the class count of Ωi's partition, and the size of the acyclic
// join ⋈ᵢ R[Ωi] comes from Yannakakis-style weighted message passing over
// the join tree, one bottom-up pass of array sweeps indexed by separator
// class id. Class weights are integer-valued float64s, so the count is exact
// (and independent of summation order) below 2^53.
//
// Phase 1 computed the entropy of (nearly) every bag and separator, but
// most bags are chain leaves, whose entropies are counted without the
// partition being stored; so the first ranking after a cold mine builds
// most bag partitions, and a later one finds them cached. AnalyzeAll ranks a
// batch of schemes on several goroutines, which build those partitions in
// parallel.
//
// Decompose materializes the projections themselves from the same
// partitions; a Decomposition then offers Yannakakis' full reducer and a
// reduction-based join over string values, since hand-built or reloaded
// projections share no base rows. A pairwise materializing join is also
// provided; tests use it to validate the count on small inputs.
package decompose

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/par"
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
// relation, from the partitions in o's PLI cache. The schema must cover
// exactly the attributes of the relation and be acyclic. Partitions are
// fetched per call and not held afterwards, so a cache budget changes the
// cost, never the metrics. Safe for concurrent use on any oracle.
func Analyze(o *entropy.Oracle, s schema.Schema) (Metrics, error) {
	c := counterPool.Get().(*counter)
	defer counterPool.Put(c)
	return c.analyze(o, s)
}

// AnalyzeAll is Analyze over a batch of schemas on up to workers
// goroutines (par.For). Each ranks the schemas it claims with its own
// pooled counter and writes the result at the schema's index; a schema
// Analyze rejects leaves zero Metrics and its error at its index. Metrics
// are exact counts, so the results do not depend on workers or on which
// goroutine ranked which schema.
func AnalyzeAll(o *entropy.Oracle, schemas []schema.Schema, workers int) ([]Metrics, []error) {
	mets := make([]Metrics, len(schemas))
	errs := make([]error, len(schemas))
	par.For(len(schemas), workers, func() (func(int) bool, func()) {
		c := counterPool.Get().(*counter)
		return func(i int) bool {
			mets[i], errs[i] = c.analyze(o, schemas[i])
			return true
		}, func() { counterPool.Put(c) }
	})
	return mets, errs
}

// analyze is Analyze on the caller's counter.
func (c *counter) analyze(o *entropy.Oracle, s schema.Schema) (Metrics, error) {
	r := o.Relation()
	if s.Attrs() != r.AllAttrs() {
		return Metrics{}, fmt.Errorf("decompose: schema %v does not cover the relation's %d attributes", s, r.NumCols())
	}
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		return Metrics{}, err
	}
	n := o.Partition(r.AllAttrs()).NumClasses()

	cellsDecomposed := c.load(o, tree.Bags)
	joinSize := c.joinSize(o, tree)

	m := Metrics{
		Relations:       s.M(),
		Width:           s.Width(),
		IntWidth:        s.IntersectionWidth(),
		RowsOriginal:    n,
		CellsOriginal:   n * r.NumCols(),
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
	return m, nil
}

// counter is the scratch of one join count: per bag, the representative
// row and the weight of every class of the bag's partition, plus one row →
// class-id vector and one message vector reused across the tree's edges.
// Pooled across calls like pli's arenas; it holds row ids and numbers only,
// never a partition.
type counter struct {
	ids  []int32   // row → class id under the current separator
	msg  []float64 // separator class → summed weight of the child's classes
	reps []int32   // class representatives of every bag, concatenated
	w    []float64 // class weights, parallel to reps
	off  []int     // bag i owns reps[off[i]:off[i+1]]
}

var counterPool = sync.Pool{New: func() any { return new(counter) }}

// load fills the per-bag class arrays (every weight 1) and returns
// Σ |R[Ωi]| × |Ωi|.
func (c *counter) load(o *entropy.Oracle, bags []bitset.AttrSet) (cells int) {
	c.ids = resize(c.ids, o.Relation().NumRows())
	c.reps, c.off = c.reps[:0], append(c.off[:0], 0)
	for _, bag := range bags {
		start := len(c.reps)
		c.reps = o.Partition(bag).ClassReps(c.reps, c.ids)
		cells += (len(c.reps) - start) * bag.Len()
		c.off = append(c.off, len(c.reps))
	}
	c.w = resize(c.w, len(c.reps))
	for i := range c.w {
		c.w[i] = 1
	}
	return cells
}

// bag returns the class representatives and weights of bag i.
func (c *counter) bag(i int) ([]int32, []float64) {
	return c.reps[c.off[i]:c.off[i+1]], c.w[c.off[i]:c.off[i+1]]
}

// joinSize returns |⋈ᵢ R[Ωi]| by bottom-up counting over classes: the
// weight of a bag class is the number of join results of the subtree below
// it that extend its tuple. Children come before parents; an edge (u, p)
// with separator X sums u's weights per X-class and multiplies every class
// of p by the sum of its X-class. X ⊆ Ωu ∩ Ωp, so a class's representative
// row carries its X-class. Disjoint bags are the scalar case: one message,
// the child's total.
func (c *counter) joinSize(o *entropy.Oracle, tree *schema.JoinTree) float64 {
	order, parents := tree.DepthFirstOrder()
	for k := len(order) - 1; k >= 1; k-- {
		u := order[k]
		p := parents[u]
		repU, wU := c.bag(u)
		repP, wP := c.bag(p)
		sep := tree.Bags[u].Intersect(tree.Bags[p])
		if sep.IsEmpty() {
			total := sum(wU)
			for i := range wP {
				wP[i] *= total
			}
			continue
		}
		ids := c.ids
		msg := resize(c.msg, o.Partition(sep).ClassIDs(ids))
		c.msg = msg
		clear(msg)
		for i, row := range repU {
			msg[ids[row]] += wU[i]
		}
		for i, row := range repP {
			wP[i] *= msg[ids[row]]
		}
	}
	_, wRoot := c.bag(order[0])
	return sum(wRoot)
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
