package pli

import (
	"math/bits"
	"sync"

	"repro/internal/hsum"
)

// Arena is the reusable scratch state of the dense intersection engine:
// flat scratch arrays that grow to the workload's high-water mark and are
// then reused, so steady-state intersections perform zero amortized
// allocations beyond the retained result itself (and none at all on the
// count-only path).
//
// The engine exploits that probe[tid] is a q-cluster id + 1 bounded by
// q.NumClusters(): grouping is a dense counts array indexed by that slot
// value, slot 0 absorbing q's stripped singletons, never a rehash. The
// probe is the one operand every pass reads at random, once per scanned
// row, so each partition stores it at the narrowest width its cluster
// count allows (1, 2 or 4 bytes per row, see probeMap) and every pass
// that reads it is one generic body instantiated at the three widths.
// What is narrowed is the array indexed by row id, which at 4 bytes
// outgrows L1 from about 8k rows — not the counts/touched scratch indexed
// by cluster id, which a deleted int16 kernel once narrowed for nothing.
//
// Building a partition is two passes — count (every group's size,
// recorded at its first row) then fill (row placement at precomputed
// offsets) — with the canonical first-row cluster order fixed between the
// passes, so results are byte-identical to
// FromAttrs. That order costs no sort: first rows are distinct row ids, so
// a bitmap of them read upwards is the order. An entropy needs neither the
// order nor the rows: the sum over class sizes is an integer (package
// hsum), so IntersectEntropy reads each group's size straight out of the
// counts array and adds its term — most of a cold mine's entropies (the
// cache's chain leaves) are that and nothing else.
//
// An Arena is not safe for concurrent use; check one out per goroutine
// (the parallel miners hold one per worker via entropy.Oracle.Local) or
// use the package pool (GetArena/PutArena).
type Arena struct {
	counts  []int32 // probe slot (q-cluster id + 1) -> running count / fill cursor; all zero between ops
	touched []int32 // counts slots touched by the current p-cluster (fill pass)
	// groups is indexed by row id. A (p-cluster, q-cluster) group is named
	// by its first row — the smallest, rows being scanned ascending — and
	// that row's slot holds the group's size after the count pass, then,
	// for groups that survive stripping, the complement of the group's
	// offset in the result (negative, so fill can tell the two apart).
	// Slots of other rows are never read.
	groups  []int32
	firsts  []uint64 // bitmap over row ids: first rows of surviving groups; all zero between ops
	later   []uint64 // bitmap over row ids for Cache.Classes: rows that are not first of their class; all zero between ops
	offsets []int32  // offsets of the result being built, fixed by canonicalize
}

// NewArena returns an empty arena; its scratch grows on first use.
func NewArena() *Arena { return &Arena{} }

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena checks an arena out of the package pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the package pool. The caller must not use
// the arena afterwards.
func PutArena(a *Arena) { arenaPool.Put(a) }

// Intersect returns the stripped partition for the union of the attribute
// sets represented by p and q — rows are equivalent iff they are
// equivalent under both, the paper's CNT/TID join-group-by (Sec. 6.3) —
// as an owned, immutable Partition (the only allocations are the result's
// own arrays). Byte-identical to FromAttrs over that union.
func (a *Arena) Intersect(p, q *Partition) *Partition {
	p, q = iterateSmaller(p, q)
	a.groups = grow(a.groups, p.n)
	a.firsts = grow(a.firsts, (p.n+63)>>6)
	// One count slot per q-cluster plus slot 0, where the probe routes
	// q-singletons, so the counting loop is a pure increment with no
	// per-row branch.
	a.counts = grow(a.counts, q.NumClusters()+1)
	switch pr := q.probeMap(); {
	case pr.w1 != nil:
		return buildIntersection(a, p, pr.w1)
	case pr.w2 != nil:
		return buildIntersection(a, p, pr.w2)
	default:
		return buildIntersection(a, p, pr.w4)
	}
}

// buildIntersection is Intersect over the probe of slot type W: the count
// pass records the size of every (p-cluster, q-cluster) group at its
// first row, canonicalize fixes the result's shape and entropy sum, and
// the fill pass places the rows, allocating exactly the retained arrays.
func buildIntersection[W probeSlot](a *Arena, p *Partition, probe []W) *Partition {
	countPass(a, p, probe)
	clusters, rows, sum := a.canonicalize(hsum.For(p.n))
	out := &Partition{n: p.n, hsum: sum}
	if clusters == 0 {
		return out
	}
	out.rows = make([]int32, rows)
	out.offsets = make([]int32, clusters+1)
	copy(out.offsets, a.offsets)
	fillRows(a, p, probe, out.rows)
	return out
}

// IntersectEntropy returns the entropy of the intersection partition
// without materializing or even shaping it: two sweeps per cluster of the
// smaller operand — count its rows by the other side's cluster id, then
// read each count back once, zero it and add its term to one integer.
// Nothing is stored per row and no order is fixed, because the sum has
// none; the result equals Intersect(p, q).Entropy() and is the same with
// the operands swapped. Zero allocations in steady state — this is how the
// cache answers every entropy whose partition nothing would read back.
func (a *Arena) IntersectEntropy(p, q *Partition) float64 {
	p, q = iterateSmaller(p, q)
	a.counts = grow(a.counts, q.NumClusters()+1)
	sc := hsum.For(p.n)
	var sum int64
	switch pr := q.probeMap(); {
	case pr.w1 != nil:
		sum = entropySum(a.counts, p, pr.w1, sc)
	case pr.w2 != nil:
		sum = entropySum(a.counts, p, pr.w2, sc)
	default:
		sum = entropySum(a.counts, p, pr.w4, sc)
	}
	return sc.Entropy(sum)
}

// entropySum is IntersectEntropy's pass over the probe of slot type W.
// The second sweep of a cluster takes whichever is shorter: its rows
// again — the first row of a group reads its size, every later row the 0
// the first one left; sizes 0 and 1 have a zero term, so there is nothing
// to branch on — or, when the cluster has more rows than there are count
// slots, the slots themselves, read in order and cleared in one go.
func entropySum[W probeSlot](counts []int32, p *Partition, probe []W, sc hsum.Scale) int64 {
	var sum int64
	for ci := 0; ci < p.NumClusters(); ci++ {
		cluster := p.Cluster(ci)
		for _, tid := range cluster {
			counts[probe[tid]]++
		}
		counts[0] = 0
		if len(cluster) > len(counts) {
			for _, c := range counts {
				sum += sc.Term(int(c))
			}
			clear(counts)
			continue
		}
		for _, tid := range cluster {
			sum += sc.Term(int(counts[probe[tid]]))
			counts[probe[tid]] = 0
		}
	}
	return sum
}

// iterateSmaller orders the operands of an intersection: the first is
// iterated, the second probed. Intersection is symmetric; scanning the
// smaller side is what makes it cheap.
func iterateSmaller(p, q *Partition) (iter, probed *Partition) {
	if p.n != q.n {
		panic("pli: intersecting partitions over different relations")
	}
	if q.Size() < p.Size() {
		return q, p
	}
	return p, q
}

// canonicalize fixes the result's shape from the count pass: surviving
// groups (size >= 2) in first-row order — the order sortClusters fixes
// for the reference builders, and so the layout of the materialized
// partition — with their offsets and the fused entropy sum. First rows are
// distinct row ids, so walking the set bits of the firsts bitmap upwards
// *is* that order: linear in survivors + n/64, no comparison, no
// allocation once offsets has grown. Each survivor's groups slot is turned
// into its fill cursor on the way, and the bitmap is left all zero for the
// next operation. It returns the result's cluster count, row count and
// entropy sum; a.offsets holds its offsets.
func (a *Arena) canonicalize(sc hsum.Scale) (clusters, rows int, sum int64) {
	offsets := append(a.offsets[:0], 0)
	cur := int32(0)
	for w, set := range a.firsts {
		for ; set != 0; set &= set - 1 {
			first := w<<6 | bits.TrailingZeros64(set)
			size := a.groups[first]
			a.groups[first] = ^cur
			cur += size
			offsets = append(offsets, cur)
			sum += sc.Term(int(size))
		}
		a.firsts[w] = 0
	}
	a.offsets = offsets
	return len(offsets) - 1, int(cur), sum
}

// countPass groups the rows of each p-cluster by their q-cluster id, over
// the probe of slot type W. The first sweep of a cluster is a pure
// increment over counts[probe] (slot 0 absorbs q-singletons); the second
// reads each row's group size back and zeroes the slot, restoring the
// all-zero invariant — so the first row of a group sees its size and
// every later row sees 0. Every
// row stores what it saw in its groups slot and ORs survives(size) into
// its firsts bit: first rows record their group, the rest write nothing
// that is ever read, and neither sweep has a branch to mispredict.
func countPass[W probeSlot](a *Arena, p *Partition, probe []W) {
	counts, groups, firsts := a.counts, a.groups, a.firsts
	for ci := 0; ci < p.NumClusters(); ci++ {
		cluster := p.Cluster(ci)
		for _, tid := range cluster {
			counts[probe[tid]]++
		}
		counts[0] = 0
		for _, tid := range cluster {
			size := counts[probe[tid]]
			counts[probe[tid]] = 0
			groups[tid] = size
			firsts[tid>>6] |= survives(size) << (tid & 63)
		}
	}
}

// survives is 1 for the size of a group the result keeps (>= 2) and 0 for
// a stripped singleton's 1 or a non-first row's 0: the sign bit of 1-size.
func survives(size int32) uint64 { return uint64(uint32(1-size) >> 31) }

// fillRows is the second pass, over the probe of slot type W: re-scan the
// p-clusters the count pass scanned and place each row id at its
// cluster's precomputed offset; the first row of a group finds that offset
// in its own groups slot. dst has the length canonicalize returned. The
// counts slots are indexed by probe value, as in the count pass; slot 0
// (q-singletons) is never touched here.
func fillRows[W probeSlot](a *Arena, p *Partition, probe []W, dst []int32) {
	for ci := 0; ci < p.NumClusters(); ci++ {
		cluster := p.Cluster(ci)
		a.touched = a.touched[:0]
		for _, tid := range cluster {
			qi := probe[tid]
			if qi == 0 {
				continue
			}
			v := a.counts[qi]
			if v == 0 {
				// First touch: tid opens this q-cluster's group. Surviving
				// groups carry their write cursor (start+1, so it is never
				// confused with the zero sentinel); stripped singletons
				// carry -1.
				a.touched = append(a.touched, int32(qi))
				v = -1
				if g := a.groups[tid]; g < 0 {
					v = ^g + 1
				}
				a.counts[qi] = v
			}
			if v > 0 {
				dst[v-1] = tid
				a.counts[qi] = v + 1
			}
		}
		for _, qi := range a.touched {
			a.counts[qi] = 0
		}
	}
}

// grow resizes s to n entries, reusing its backing array when it is large
// enough (the arena's steady state) and reallocating otherwise.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
