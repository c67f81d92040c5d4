// Package hsum is the one entropy sum of the repository: Σ |c|·log2|c|
// over the equivalence classes of a partition (the subtrahend of Eq. 5),
// kept as a fixed-point integer instead of a float.
//
// A float sum depends on the order its terms arrive in, so every builder of
// a partition — and every count pass that only wants the entropy — had to
// visit the classes in one canonical order to produce the same bits. An
// integer sum has no order: each class contributes round(k·log2 k·2^shift),
// a function of its size and the relation's row count alone, and integer
// addition is associative. The entropy of an attribute set is therefore a
// function of its class-size multiset by construction — the same value,
// compared with ==, from the stripped-partition builders, the arena's
// streaming count, the spill record and the naive references, whatever the
// row order, the operand order or the route through the lattice.
//
// What the rounding costs is written down next to info.Tol.
package hsum

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// tableSize bounds the class sizes whose term is a lookup; nearly every
// class an intersection produces is smaller. Larger ones are computed with
// the expression the table was filled from, so the two agree exactly.
const tableSize = 1 << 12

// maxShift caps the fractional bits: k·log2 k is at least 2 for k >= 2, so
// a float64 of it carries none below 2^-52.
const maxShift = 52

// tables[s] holds round(k·log2 k·2^s) for k < tableSize, built the first
// time a relation with that shift is summed (a process sees one or two).
var tables [maxShift + 1]atomic.Pointer[[tableSize]int64]

// Scale is the fixed-point scale of the sums over relations of one row
// count: how many fractional bits a term keeps, chosen so that the largest
// possible sum — one class holding every row — still fits an int64.
type Scale struct {
	n     int
	shift uint
	table *[tableSize]int64
}

// shiftFor returns the number of fractional bits of the sums over n-row
// relations: min(52, 62 − bitlen⌈n·log2 n⌉). Σ k·log2 k over any partition
// of n rows is at most n·log2 n < 2^bitlen, so a sum stays below 2^62.
func shiftFor(n int) uint {
	if n < 2 {
		return maxShift
	}
	bound := math.Ceil(float64(n) * math.Log2(float64(n)))
	return uint(min(maxShift, 62-bits.Len64(uint64(bound))))
}

// For returns the scale of n-row relations.
func For(n int) Scale {
	shift := shiftFor(n)
	t := tables[shift].Load()
	if t == nil {
		t = new([tableSize]int64)
		for k := 2; k < tableSize; k++ {
			t[k] = term(k, shift)
		}
		// Concurrent first builds compute identical tables; either wins.
		tables[shift].CompareAndSwap(nil, t)
	}
	return Scale{n: n, shift: shift, table: t}
}

// term is round(k·log2 k·2^shift) for k >= 2 — the one expression every
// entropy in the repository is summed from.
func term(size int, shift uint) int64 {
	k := float64(size)
	return int64(math.Round(math.Ldexp(k*math.Log2(k), int(shift))))
}

// Term returns a class of k rows' contribution to the sum; 0 for an empty
// slot or a singleton, which is why stripped partitions lose nothing.
func (s Scale) Term(k int) int64 {
	if uint(k) < tableSize {
		return s.table[k]
	}
	return term(k, s.shift)
}

// Entropy returns the empirical entropy in bits of an attribute set whose
// classes sum to sum, per Eq. (5): log2 n − (1/n)·Σ |c|·log2|c|.
func (s Scale) Entropy(sum int64) float64 {
	if s.n == 0 {
		return 0
	}
	return math.Log2(float64(s.n)) - math.Ldexp(float64(sum), -int(s.shift))/float64(s.n)
}
