package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, q2, q3)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// A percentile is reported only with ten samples beyond it: 100 samples
// carry a p90, 99 do not; a p99 needs 1000.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{7, 0.5}, {99, 0.5}, {100, 0.9}, {150, 0.9}, {999, 0.9}, {1000, 0.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 0) != 0 {
		t.Error("ratio with an empty denominator should be 0 (layer idle)")
	}
	if ratio(3, 4) != 0.75 {
		t.Error("ratio(3,4) != 0.75")
	}
}
