package main

import (
	"context"
	"fmt"
	"time"
)

// runSelfcheck answers "can this benchmark tell a change from noise on
// this box": it makes the end-to-end pass twice on the same build and
// fails if any metric's two values differ by more than that metric's
// bound. A metric that fails here cannot refuse a regression of that size
// either — add reps or lengthen the op, do not widen the bound.
func runSelfcheck(ctx context.Context, e *env, selected []workload, seed int64, budget time.Duration) bool {
	const passes = 2
	ok := true
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s\n", "workload", "metric", "pass 1", "pass 2", "diff", "bound")
	for _, w := range selected {
		var vals [passes]map[string]float64
		for i := range vals {
			m, _, err := runEndToEnd(ctx, e, w, seed, budget)
			if err != nil || m.Failed > 0 || len(m.Ops) == 0 {
				fmt.Printf("%-14s pass %d failed: %v %v\n", w.Name, i+1, err, m.Errs)
				return false
			}
			vals[i] = m.metrics(w)
		}
		for _, spec := range endToEnd {
			a, b := vals[0][spec.Name], vals[1][spec.Name]
			diff := ratio(b-a, a)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > spec.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-14s %-16s %12.5g %12.5g %7.1f%% %7.0f%%%s\n", w.Name, spec.Name, a, b, 100*diff, 100*spec.Bound, verdict)
		}
	}
	return ok
}
