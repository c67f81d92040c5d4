package main

import (
	"math"
	"testing"
)

func TestHostFactor(t *testing.T) {
	if f := hostFactor(nil); f != 1 {
		t.Errorf("no calibrations: factor %v, want 1", f)
	}
	if f := hostFactor([]float64{calRef, calRef, 9}); f != 1 {
		t.Errorf("median calibration = reference: factor %v, want 1 (the median, not the mean)", f)
	}
	// A host on which the calibration takes twice as long runs the
	// memory-bound share of an op twice as long.
	slow := hostFactor([]float64{2 * calRef})
	if want := 1 / (1 + memShare); math.Abs(slow-want) > 1e-12 {
		t.Errorf("calibration 2× reference: factor %v, want %v", slow, want)
	}
	if fast := hostFactor([]float64{calRef / 2}); fast <= 1 || slow >= 1 {
		t.Errorf("factors %v (fast host) and %v (slow host) are on the wrong side of 1", fast, slow)
	}
}

// The factor scales the two times and nothing else.
func TestMetricsAreHostNormalised(t *testing.T) {
	w := workloads[0]
	m := &measured{Setup: []float64{3}, Ops: []opSample{{Wall: 2, CPU: 4, First: 1, RSSMB: 100}}, Cal: []float64{2 * calRef}}
	got, f := m.metrics(w), hostFactor(m.Cal)
	if got["wall_s"] != 2*f || got["cpu_s"] != 4*f || got["peak_rss_mb"] != 100 || got["setup_s"] != 3 {
		t.Errorf("metrics %v with factor %v", got, f)
	}
}
