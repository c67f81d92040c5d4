package pli

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// int16BoundaryRows straddle 32767, the largest count, cluster id or fill
// cursor an int16 holds: the row counts at which any narrowing of the
// count kernel's scratch would first go wrong.
var int16BoundaryRows = []int{32760, 32767, 32768, 33000}

// TestKernelAtInt16Boundary holds the count kernel to both references on
// each side of the int16 boundary: the arena, the map grouping and the
// direct construction must produce identical partitions — cluster order,
// row order and entropy bits — and the streaming count must return the
// materialized entropy.
func TestKernelAtInt16Boundary(t *testing.T) {
	rng := rand.New(rand.NewSource(32767))
	for _, rows := range int16BoundaryRows {
		r := skewedRelation(rng, rows, 3)
		a := NewArena()
		for _, pair := range [][2]bitset.AttrSet{
			{bitset.Single(0), bitset.Single(1)},
			{bitset.Single(1), bitset.Single(2)},
			{bitset.Of(0, 1), bitset.Single(2)},
		} {
			px, py := FromAttrs(r, pair[0]), FromAttrs(r, pair[1])
			want := FromAttrs(r, pair[0].Union(pair[1]))
			ref := intersectMap(px, py)
			if !Equal(ref, want) || ref.Entropy() != want.Entropy() {
				t.Fatalf("rows=%d %v∩%v: intersectMap != FromAttrs", rows, pair[0], pair[1])
			}
			got := a.Intersect(px, py)
			if !Equal(got, want) {
				t.Fatalf("rows=%d %v∩%v: arena != FromAttrs", rows, pair[0], pair[1])
			}
			if got.Entropy() != want.Entropy() {
				t.Fatalf("rows=%d %v∩%v: entropies diverge: arena %b direct %b",
					rows, pair[0], pair[1], got.Entropy(), want.Entropy())
			}
			// The streaming count must agree too — chain leaves and the
			// memory-budget path answer H from it.
			if h := a.IntersectEntropy(px, py); h != want.Entropy() {
				t.Fatalf("rows=%d: IntersectEntropy = %b, want %b", rows, h, want.Entropy())
			}
		}
	}
}

// TestKernelZeroAllocAtInt16Boundary is TestIntersectZeroAllocSteadyState
// at the boundary row counts: once warm, the count-only path performs zero
// amortized allocations per call on either side of 32767, and the build
// exactly those of its result.
func TestKernelZeroAllocAtInt16Boundary(t *testing.T) {
	rng := rand.New(rand.NewSource(32768))
	for _, rows := range int16BoundaryRows {
		r := skewedRelation(rng, rows, 2)
		pa, pb := SingleAttribute(r, 0), SingleAttribute(r, 1)
		a := NewArena()
		a.Intersect(pa, pb)
		a.IntersectEntropy(pa, pb)
		if avg := testing.AllocsPerRun(20, func() {
			a.Intersect(pa, pb)
		}); avg != resultAllocs {
			t.Errorf("rows=%d: warm Intersect allocates %v times per run, want %d", rows, avg, resultAllocs)
		}
		if avg := testing.AllocsPerRun(20, func() {
			a.IntersectEntropy(pa, pb)
		}); avg != 0 {
			t.Errorf("rows=%d: warm IntersectEntropy allocates %v times per run, want 0", rows, avg)
		}
	}
}

// probeWidthClusters straddle the two probe width boundaries: 255
// clusters is the most a one-byte probe holds (slot = cluster id + 1,
// 0 = singleton), 65,535 the most a two-byte one does.
var probeWidthClusters = []int{254, 255, 256, 65534, 65535, 65536}

// pairedRelation has 2·k rows over three columns. Column 0 puts every
// value on exactly two rows, shuffled, so its partition has exactly k
// clusters and no singleton. Columns 1 and 2 each leave a few rows on
// values of their own, so their partitions are smaller and column 0's is
// always the probed operand. Column 1 is otherwise constant, so its one
// cluster outnumbers column 0's count slots; column 2 cycles over three
// values, so its clusters do not.
func pairedRelation(rng *rand.Rand, k int) *relation.Relation {
	rows := 2 * k
	paired := make([]relation.Code, rows)
	for i, row := range rng.Perm(rows) {
		paired[row] = relation.Code(i / 2)
	}
	constant := make([]relation.Code, rows)
	cycled := make([]relation.Code, rows)
	for i := range cycled {
		cycled[i] = relation.Code(i % 3)
	}
	for u := 0; u < 5; u++ {
		row := rng.Intn(rows)
		constant[row] = relation.Code(1 + u)
		cycled[row] = relation.Code(3 + u)
	}
	r, err := relation.FromCodes([]string{"A", "B", "C"}, [][]relation.Code{paired, constant, cycled})
	if err != nil {
		panic(err)
	}
	return r
}

// TestKernelAtProbeWidths holds the count kernel to both references on
// each side of the probe's width boundaries: with the k-cluster partition
// probed, the arena, the map grouping and the direct construction must
// produce identical partitions, the streaming count must return the
// materialized entropy bit for bit, the probe must have the width its
// cluster count allows, and once warm the count-only path must allocate
// nothing and the build only its result.
func TestKernelAtProbeWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(65535))
	for _, k := range probeWidthClusters {
		r := pairedRelation(rng, k)
		paired := SingleAttribute(r, 0)
		if paired.NumClusters() != k || paired.Size() != 2*k {
			t.Fatalf("k=%d: paired column has %d clusters over %d rows", k, paired.NumClusters(), paired.Size())
		}
		a := NewArena()
		for _, other := range []int{1, 2} {
			px := SingleAttribute(r, other)
			want := FromAttrs(r, bitset.Of(0, other))
			if ref := intersectMap(px, paired); !Equal(ref, want) || ref.Entropy() != want.Entropy() {
				t.Fatalf("k=%d, column %d: intersectMap != FromAttrs", k, other)
			}
			for _, ops := range [][2]*Partition{{px, paired}, {paired, px}} {
				got := a.Intersect(ops[0], ops[1])
				if !Equal(got, want) || got.Entropy() != want.Entropy() {
					t.Fatalf("k=%d, column %d: arena != FromAttrs", k, other)
				}
				if h := a.IntersectEntropy(ops[0], ops[1]); h != want.Entropy() {
					t.Fatalf("k=%d, column %d: IntersectEntropy = %b, want %b", k, other, h, want.Entropy())
				}
			}
			if px.probe.Load() != nil {
				t.Fatalf("k=%d: column %d was probed; the paired column should be", k, other)
			}
			if avg := testing.AllocsPerRun(5, func() {
				a.Intersect(px, paired)
			}); avg != resultAllocs {
				t.Errorf("k=%d, column %d: warm Intersect allocates %v times per run, want %d", k, other, avg, resultAllocs)
			}
			if avg := testing.AllocsPerRun(5, func() {
				a.IntersectEntropy(px, paired)
			}); avg != 0 {
				t.Errorf("k=%d, column %d: warm IntersectEntropy allocates %v times per run, want 0", k, other, avg)
			}
		}
		pr := paired.probe.Load()
		if pr == nil {
			t.Fatalf("k=%d: the paired column was never probed", k)
		}
		var width int64
		switch {
		case pr.w1 != nil && pr.w2 == nil && pr.w4 == nil:
			width = 1
		case pr.w1 == nil && pr.w2 != nil && pr.w4 == nil:
			width = 2
		case pr.w1 == nil && pr.w2 == nil && pr.w4 != nil:
			width = 4
		default:
			t.Fatalf("k=%d: probe does not hold exactly one width", k)
		}
		want := int64(4)
		if k <= 255 {
			want = 1
		} else if k <= 65535 {
			want = 2
		}
		if width != want {
			t.Fatalf("k=%d: probe is %d bytes per row, want %d", k, width, want)
		}
		if got, want := paired.SizeBytes(), 64+int64(k+1)*4+int64(2*k)*4+int64(2*k)*width; got != want {
			t.Fatalf("k=%d: SizeBytes = %d, want %d (probe at %d bytes per row)", k, got, want, width)
		}
	}
}
