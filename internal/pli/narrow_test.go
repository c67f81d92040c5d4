package pli

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
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
// at the boundary row counts: once warm, the view and count-only paths
// perform zero amortized allocations per call on either side of 32767.
func TestKernelZeroAllocAtInt16Boundary(t *testing.T) {
	rng := rand.New(rand.NewSource(32768))
	for _, rows := range int16BoundaryRows {
		r := skewedRelation(rng, rows, 2)
		pa, pb := SingleAttribute(r, 0), SingleAttribute(r, 1)
		a := NewArena()
		a.IntersectView(pa, pb)
		a.IntersectEntropy(pa, pb)
		if avg := testing.AllocsPerRun(20, func() {
			a.IntersectView(pa, pb)
		}); avg != 0 {
			t.Errorf("rows=%d: warm IntersectView allocates %v times per run, want 0", rows, avg)
		}
		if avg := testing.AllocsPerRun(20, func() {
			a.IntersectEntropy(pa, pb)
		}); avg != 0 {
			t.Errorf("rows=%d: warm IntersectEntropy allocates %v times per run, want 0", rows, avg)
		}
	}
}
