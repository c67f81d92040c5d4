// Package pli implements position list indices (stripped partitions) and
// their intersection, the engine behind Maimon's getEntropyR (Sec. 6.3).
//
// The paper reduces entropy computation to main-memory SQL over two table
// families, CNT (distinct value -> frequency, frequencies of 1 pruned) and
// TID (distinct value -> row ids of its occurrences). A stripped partition
// is exactly that structure: the equivalence classes of rows that agree on
// an attribute set, with singleton classes removed. Intersecting the
// partitions of α and β — grouping the row ids of each class of α by their
// class in β — is the paper's join-group-by query, and singleton pruning is
// what keeps the structures small as attribute sets grow.
//
// Partitions are stored flat: one contiguous row-id array plus an offsets
// index, one allocation each instead of one per cluster, so intersection
// scans are sequential and the memory accounting has no per-cluster slice
// headers. The intersection itself runs on a reusable Arena (arena.go) —
// dense count-then-fill grouping with no hash map and no per-group copy.
//
// Operands are materialised, leaves are counted. The Cache (cache.go)
// assembles a set's partition blockwise, as Sec. 6.3 does: one
// intersection of the partitions of two smaller sets, its operands, which
// are built, published and shared by every set whose chain runs through
// them — the within-block tables the paper precomputes, made on demand.
// An entropy, though, needs the sizes of the classes and nothing else,
// and most attribute sets are chain leaves: no other set's chain can read
// their partition. A first request for a leaf's entropy is therefore the
// count pass over its two operands and stops there — nothing filled,
// allocated, published, evicted or spilled. Scheme ranking and
// decomposition want the classes themselves — which rows open them, which
// class a row is in — and get them the same way (classes.go): one count
// pass over the operands, laid out into tables the caller owns. A leaf's
// partition exists only if someone asks for the partition itself (Get),
// and then it is cached like any other. The columns are
// cut into at least two blocks of near-equal width (Config.BlockSize is
// the widest allowed), because the operands are the sets inside one block
// or clear of the last: about 2·2^(n/2) of the 2^n, where the paper's one
// block of ten would build half the lattice.
//
// The entropy sum is an integer. Σ|c|·log2|c| is accumulated in fixed
// point from one term function (package hsum), so an entropy is a
// function of the class-size multiset alone: every builder here, the
// streaming count, a spilled record and the naive references return the
// same float64 whatever order they met the classes in. First-row order
// still fixes the layout of a materialised partition; it no longer has
// anything to do with its entropy.
package pli

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/hsum"
	"repro/internal/relation"
)

// Partition is a stripped partition of the rows of a relation: the
// equivalence classes (by equality on some attribute set) that contain at
// least two rows. The classes are stored flat — rows holds the row ids of
// cluster i at rows[offsets[i]:offsets[i+1]], ids ascending within each
// cluster — and Σ|c|·log2|c| is accumulated at construction time, so
// Entropy is a constant-time read instead of a pass over the clusters.
//
// A Partition built by SingleAttribute, FromAttrs or an Arena is immutable
// after construction and safe for concurrent readers: the lazy probe is
// published through an atomic pointer, so partitions handed out by a
// shared Cache may be intersected from many goroutines at once.
// (Concurrent first builds may duplicate work; exactly one result wins,
// and both are identical.)
type Partition struct {
	n       int     // number of rows in the underlying relation
	rows    []int32 // concatenated cluster row ids (ascending within a cluster)
	offsets []int32 // cluster i = rows[offsets[i]:offsets[i+1]]; nil when no clusters
	hsum    int64   // Σ |c|·log2|c| over clusters in fixed point (hsum.Scale of n)

	probe atomic.Pointer[probeMap] // lazy row -> cluster map, built on first use as the probed operand
}

// probeMap is a partition's row -> cluster map. Slot tid holds cluster id
// + 1 of row tid, and 0 marks a row in a stripped singleton class, so the
// slot value itself indexes the engine's counts array (whose slot 0
// absorbs the singletons). Exactly one slice is set: the narrowest whose
// element holds the cluster count — 1 byte per row up to 255 clusters, 2
// up to 65,535, 4 beyond. The probe is the operand of a count pass that is
// read at random, once per scanned row, so its width decides whether it
// stays in cache: a 27k-row relation's probe is 27 KB at one byte and
// 108 KB at four.
type probeMap struct {
	w1 []uint8
	w2 []uint16
	w4 []uint32
}

// probeSlot is the element type of a probe: one of the three widths a
// probeMap holds. The passes that read a probe are written once over it.
type probeSlot interface{ uint8 | uint16 | uint32 }

// NumRows returns the number of rows of the underlying relation.
func (p *Partition) NumRows() int { return p.n }

// NumClusters returns the number of (non-singleton) equivalence classes.
func (p *Partition) NumClusters() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Cluster returns the row ids of cluster i as a zero-copy view into the
// partition's backing array; callers must not modify it.
func (p *Partition) Cluster(i int) []int32 {
	return p.rows[p.offsets[i]:p.offsets[i+1]]
}

// Size returns the total number of row ids stored — the ||π|| measure that
// governs intersection cost. Singleton pruning makes this shrink as
// attribute sets grow.
func (p *Partition) Size() int { return len(p.rows) }

// NumClasses returns the number of equivalence classes, stripped
// singletons included — |R[α]|, the row count of the duplicate-free
// projection onto the attribute set the partition represents.
func (p *Partition) NumClasses() int {
	return p.NumClusters() + p.n - len(p.rows)
}

// SizeBytes bounds the resident footprint of the partition in bytes: the
// flat row-id and offset arrays (4 bytes per entry), the probe at the
// width it would be built with (1, 2 or 4 bytes per relation row by
// cluster count — built lazily, but most cached partitions are eventually
// used as the larger intersection operand and get one, so a memory budget
// must assume it), and a fixed allowance for the struct itself. It is the
// unit of account of the cache's memory budget (Config.MaxBytes):
// deliberately conservative — the budget must upper-bound real memory,
// not track it optimistically — and deterministic (a function of row
// count, cluster count and stored ids only), so budget arithmetic
// reproduces across runs.
func (p *Partition) SizeBytes() int64 {
	const structOverhead = 64
	arrays := int64(len(p.offsets)+len(p.rows)) * 4
	return structOverhead + arrays + int64(p.n)*probeWidth(p.NumClusters())
}

// probeWidth is the bytes per row of the probe of a partition with
// numClusters clusters: the narrowest unsigned width that holds cluster
// id + 1.
func probeWidth(numClusters int) int64 {
	switch {
	case numClusters <= math.MaxUint8:
		return 1
	case numClusters <= math.MaxUint16:
		return 2
	}
	return 4
}

// probeMap returns (building lazily) the partition's row -> cluster map.
// Safe to call from concurrent readers of a shared partition: the first
// build wins, duplicates are discarded.
func (p *Partition) probeMap() *probeMap {
	if pr := p.probe.Load(); pr != nil {
		return pr
	}
	pr := new(probeMap)
	switch probeWidth(p.NumClusters()) {
	case 1:
		pr.w1 = buildProbe[uint8](p)
	case 2:
		pr.w2 = buildProbe[uint16](p)
	default:
		pr.w4 = buildProbe[uint32](p)
	}
	p.probe.CompareAndSwap(nil, pr)
	return p.probe.Load()
}

// buildProbe lays out a probe of slot type W: cluster id + 1 at each
// clustered row, 0 (the zeroed allocation) at every stripped singleton.
func buildProbe[W probeSlot](p *Partition) []W {
	probe := make([]W, p.n)
	for ci := 0; ci < p.NumClusters(); ci++ {
		id := W(ci + 1)
		for _, tid := range p.Cluster(ci) {
			probe[tid] = id
		}
	}
	return probe
}

// Entropy returns the empirical entropy (in bits) of the attribute set this
// partition represents, per Eq. (5):
//
//	H = log2 N − (1/N) Σ_classes |c|·log2|c|
//
// Stripped singletons contribute 0 to the sum, which is why they can be
// pruned. The sum is fused into construction (every builder accumulates it
// while clusters close), so this is a constant-time read — and, being an
// integer sum of per-class terms (package hsum), the same value whichever
// builder produced the partition and in whatever order it met the classes.
func (p *Partition) Entropy() float64 {
	return hsum.For(p.n).Entropy(p.hsum)
}

// SingleAttribute builds the stripped partition of column j of r. Clusters
// are stored in value-code order, ids ascending within each cluster.
func SingleAttribute(r *relation.Relation, j int) *Partition {
	col := r.Column(j)
	dom := r.DomainSize(j)
	counts := make([]int32, dom)
	for _, c := range col {
		counts[c]++
	}
	// Assign cluster slots only to codes with count >= 2 and lay out the
	// flat arrays in one pass of prefix sums.
	slot := make([]int32, dom)
	nc := 0
	total := 0
	for code, cnt := range counts {
		if cnt >= 2 {
			slot[code] = int32(nc)
			nc++
			total += int(cnt)
		} else {
			slot[code] = -1
		}
	}
	p := &Partition{n: len(col)}
	if nc == 0 {
		return p
	}
	p.rows = make([]int32, total)
	p.offsets = make([]int32, nc+1)
	cur := make([]int32, nc)
	off := int32(0)
	ci := 0
	for _, cnt := range counts {
		if cnt >= 2 {
			p.offsets[ci] = off
			cur[ci] = off
			off += cnt
			ci++
		}
	}
	p.offsets[nc] = off
	for i, c := range col {
		if s := slot[c]; s >= 0 {
			p.rows[cur[s]] = int32(i)
			cur[s]++
		}
	}
	sc := hsum.For(p.n)
	for i := 0; i < nc; i++ {
		p.hsum += sc.Term(int(p.offsets[i+1] - p.offsets[i]))
	}
	return p
}

// FromAttrs computes the stripped partition of the attribute set attrs of r
// directly, by hashing whole projected rows. It is the reference
// implementation used to validate Arena.Intersect and as a fallback for
// cold caches; O(N·|attrs|).
func FromAttrs(r *relation.Relation, attrs bitset.AttrSet) *Partition {
	if attrs.IsEmpty() {
		// The empty attribute set puts all rows in one class.
		n := r.NumRows()
		if n < 2 {
			return &Partition{n: n}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return fromClusters(n, [][]int32{all})
	}
	n := r.NumRows()
	groups := make(map[string][]int32, n)
	buf := make([]byte, 0, 4*attrs.Len())
	idx := attrs.Indices()
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, j := range idx {
			c := r.Code(i, j)
			buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		k := string(buf)
		groups[k] = append(groups[k], int32(i))
	}
	var clusters [][]int32
	for _, g := range groups {
		if len(g) >= 2 {
			clusters = append(clusters, g)
		}
	}
	sortClusters(clusters)
	return fromClusters(n, clusters)
}

// fromClusters flattens pre-ordered clusters into a Partition, fusing the
// entropy sum.
func fromClusters(n int, clusters [][]int32) *Partition {
	p := &Partition{n: n}
	if len(clusters) == 0 {
		return p
	}
	total := 0
	for _, c := range clusters {
		total += len(c)
	}
	p.rows = make([]int32, 0, total)
	p.offsets = make([]int32, len(clusters)+1)
	sc := hsum.For(n)
	for i, c := range clusters {
		p.offsets[i] = int32(len(p.rows))
		p.rows = append(p.rows, c...)
		p.hsum += sc.Term(len(c))
	}
	p.offsets[len(clusters)] = int32(len(p.rows))
	return p
}

// sortClusters canonicalizes cluster order (by first row id) so that
// partitions built by different routes compare equal in tests.
func sortClusters(clusters [][]int32) {
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
}

// Equal reports whether two partitions describe the same stripped
// equivalence classes.
func Equal(p, q *Partition) bool {
	if p.n != q.n || p.NumClusters() != q.NumClusters() || len(p.rows) != len(q.rows) {
		return false
	}
	for i := range p.offsets {
		if p.offsets[i] != q.offsets[i] {
			return false
		}
	}
	for i := range p.rows {
		if p.rows[i] != q.rows[i] {
			return false
		}
	}
	return true
}
