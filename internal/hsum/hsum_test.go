package hsum

import (
	"math"
	"testing"
)

// TestTermTableExact: a table lookup and the expression it stands for are
// the same integer on both sides of the table's end, at every shift, and
// sizes 0 and 1 — an emptied count slot, a stripped singleton — add nothing.
func TestTermTableExact(t *testing.T) {
	for _, n := range []int{2, 100, 3240, 1_000_000, math.MaxInt32} {
		sc := For(n)
		if sc.Term(0) != 0 || sc.Term(1) != 0 {
			t.Fatalf("n=%d: Term(0), Term(1) = %d, %d, want 0, 0", n, sc.Term(0), sc.Term(1))
		}
		for k := 2; k < tableSize+16; k++ {
			if got, want := sc.Term(k), term(k, sc.shift); got != want {
				t.Fatalf("n=%d: Term(%d) = %d, computed %d", n, k, got, want)
			}
		}
	}
}

// TestShiftPinned pins the fixed-point scale as a function of the row
// count — the numbers the precision note at info.Tol quotes — and that the
// largest sum an n-row relation can produce, one cluster of every row,
// stays inside an int64 and decodes to the entropy of a constant: zero.
func TestShiftPinned(t *testing.T) {
	for _, tc := range []struct {
		n     int
		shift uint
	}{
		{0, 52}, {1, 52}, {2, 52}, {3240, 46}, {1_000_000, 37}, {150_000_000, 30}, {math.MaxInt32, 26},
	} {
		if got := shiftFor(tc.n); got != tc.shift {
			t.Errorf("shiftFor(%d) = %d, want %d", tc.n, got, tc.shift)
		}
		if tc.n < 2 {
			continue
		}
		sc := For(tc.n)
		sum := sc.Term(tc.n)
		if sum <= 0 || sum >= 1<<62 {
			t.Errorf("n=%d: the one-cluster sum %d left (0, 2^62)", tc.n, sum)
		}
		if h := sc.Entropy(sum); math.Abs(h) > math.Ldexp(1, -int(tc.shift)) {
			t.Errorf("n=%d: H of one cluster = %g, want 0 within 2^-%d", tc.n, h, tc.shift)
		}
	}
}

// TestEntropyEdges: no rows and one row have no uncertainty.
func TestEntropyEdges(t *testing.T) {
	if h := For(0).Entropy(0); h != 0 {
		t.Errorf("H over 0 rows = %v", h)
	}
	if h := For(1).Entropy(0); h != 0 {
		t.Errorf("H over 1 row = %v", h)
	}
	// Four distinct rows: log2 4 (the paper's running example).
	if h := For(4).Entropy(0); h != 2 {
		t.Errorf("H of 4 distinct rows = %v, want 2", h)
	}
}
