package pli

import (
	"math/bits"

	"repro/internal/bitset"
)

// ClassView selects what Cache.Classes lays out besides the class count.
type ClassView uint8

const (
	// ClassReps asks for the first row of every class, ascending: the rows
	// a first-occurrence projection keeps, in the order it keeps them.
	ClassReps ClassView = 1 << iota
	// ClassIDs asks for the row → class-id map.
	ClassIDs
)

// Classes is the equivalence classes of the rows of a relation under one
// attribute set, stripped singletons included, as scheme ranking and
// projection read them. Class k is the class with the k-th smallest first
// row, so Reps[k] opens class k. The id map is held like a probe, at the
// narrowest width the class count allows (see probeMap), but every row
// has a slot and slot values are 0-based class ids.
type Classes struct {
	N    int      // number of classes: |R[attrs]|
	Reps []int32  // ClassReps: the first row of every class, ascending; nil otherwise
	ids  probeMap // ClassIDs: row → class id; empty otherwise
}

// SumByClass adds w[i] to sums[class of rows[i]] for every i, in index
// order. The id map must have been asked for (ClassIDs).
func (t *Classes) SumByClass(sums []float64, rows []int32, w []float64) {
	switch {
	case t.ids.w1 != nil:
		sumByClass(t.ids.w1, sums, rows, w)
	case t.ids.w2 != nil:
		sumByClass(t.ids.w2, sums, rows, w)
	default:
		sumByClass(t.ids.w4, sums, rows, w)
	}
}

// ScaleByClass multiplies w[i] by by[class of rows[i]] for every i. The id
// map must have been asked for (ClassIDs).
func (t *Classes) ScaleByClass(w []float64, rows []int32, by []float64) {
	switch {
	case t.ids.w1 != nil:
		scaleByClass(t.ids.w1, w, rows, by)
	case t.ids.w2 != nil:
		scaleByClass(t.ids.w2, w, rows, by)
	default:
		scaleByClass(t.ids.w4, w, rows, by)
	}
}

func sumByClass[W probeSlot](ids []W, sums []float64, rows []int32, w []float64) {
	for i, row := range rows {
		sums[ids[row]] += w[i]
	}
}

func scaleByClass[W probeSlot](ids []W, w []float64, rows []int32, by []float64) {
	for i, row := range rows {
		w[i] *= by[ids[row]]
	}
}

// Classes returns the classes of attrs with the views asked for, on the
// caller's arena. A resident partition is read as it stands (a hit).
// Otherwise the set's two operands are fetched, as for a leaf's entropy,
// and one count pass over them groups the rows — accounted like a chain
// leaf's entropy: a miss, an intersection, EntropyOnly — and the set's own
// partition is neither built nor published, whether or not it is a leaf.
// The tables are the caller's and outlive the arena; nothing of them is
// retained by the cache, so a ranking leaves Entries and BytesLive where
// it found them but for the operands it had to rebuild. Safe for
// concurrent use, one arena per goroutine.
func (c *Cache) Classes(a *Arena, attrs bitset.AttrSet, view ClassView) Classes {
	if p, ok := c.resident(attrs); ok {
		return a.classesOf(p, nil, view)
	}
	if attrs.IsEmpty() {
		return a.classesOf(FromAttrs(c.rel, attrs), nil, view)
	}
	left, right := c.counted(a, attrs)
	return a.classesOf(left, right, view)
}

// classesOf groups the rows by p's classes, intersected with q's when q
// is not nil, and lays out the views asked for. The pass leaves, for
// every row that is not the first of its class, its bit set in a.later
// and its class's first row in its a.groups slot; every other row opens a
// class. Rows are ascending within every cluster, so the first row met of
// a group is its smallest. With q, that is one pass (classPass) where
// building Arena.Intersect(p, q) and grouping its rows would be three —
// count, fill, then the walk above — and scheme ranking is mostly these
// passes.
func (a *Arena) classesOf(p, q *Partition, view ClassView) Classes {
	n := p.n
	a.groups = grow(a.groups, n)
	a.later = grow(a.later, (n+63)>>6)
	var later int
	if q == nil {
		for ci := 0; ci < p.NumClusters(); ci++ {
			cluster := p.Cluster(ci)
			for _, tid := range cluster[1:] {
				a.groups[tid] = cluster[0]
				a.later[tid>>6] |= 1 << (tid & 63)
			}
			later += len(cluster) - 1
		}
	} else {
		p, q = iterateSmaller(p, q)
		a.counts = grow(a.counts, q.NumClusters()+1)
		switch pr := q.probeMap(); {
		case pr.w1 != nil:
			later = classPass(a, p, pr.w1)
		case pr.w2 != nil:
			later = classPass(a, p, pr.w2)
		default:
			later = classPass(a, p, pr.w4)
		}
	}
	cl := Classes{N: n - later}
	if view&ClassReps != 0 {
		cl.Reps = a.firstRows(n, cl.N)
	}
	if view&ClassIDs != 0 {
		switch probeWidth(cl.N - 1) {
		case 1:
			cl.ids.w1 = classIDs[uint8](a, n)
		case 2:
			cl.ids.w2 = classIDs[uint16](a, n)
		default:
			cl.ids.w4 = classIDs[uint32](a, n)
		}
	}
	clear(a.later)
	return cl
}

// classPass is classesOf's count pass over the probe of slot type W: each
// p-cluster's rows are grouped by their q-cluster, counts[slot] holding the
// first row + 1 of the slot's group while the cluster is scanned. Slot 0,
// where the probe routes q-singletons, is zeroed after every row, so each
// of them opens a class of its own. Every row writes its group's first row
// (its own, if it is the first) and ORs whether it is a later one into its
// bit: the same stores whichever it is, so nothing is left to branch on.
// It returns the number of rows that are not the first of their class.
func classPass[W probeSlot](a *Arena, p *Partition, probe []W) (later int) {
	counts, groups, marks := a.counts, a.groups, a.later
	for ci := 0; ci < p.NumClusters(); ci++ {
		cluster := p.Cluster(ci)
		for _, tid := range cluster {
			s := probe[tid]
			first, seen := tid, int32(0)
			if f := counts[s]; f != 0 {
				first, seen = f-1, 1
			}
			counts[s] = first + 1
			counts[0] = 0
			groups[tid] = first
			marks[tid>>6] |= uint64(seen) << (tid & 63)
			later += int(seen)
		}
		for _, tid := range cluster {
			counts[probe[tid]] = 0
		}
	}
	return later
}

// firstRows lists the k rows below n whose a.later bit is clear, upwards.
func (a *Arena) firstRows(n, k int) []int32 {
	reps := make([]int32, 0, k)
	for w, marks := range a.later {
		free := ^marks
		if rest := n - w<<6; rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			reps = append(reps, int32(w<<6|bits.TrailingZeros64(free)))
		}
	}
	return reps
}

// classIDs numbers the classes by first row, upwards: a first row takes
// the next id, every later row its first row's.
func classIDs[W probeSlot](a *Arena, n int) []W {
	ids := make([]W, n)
	var next W
	for i := range ids {
		id := next
		if a.later[i>>6]&(1<<(i&63)) != 0 {
			id = ids[a.groups[i]]
		}
		ids[i] = id
		if id == next {
			next++
		}
	}
	return ids
}
