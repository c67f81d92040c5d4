package par

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var sizes = []int{0, 1, 63, 64, 65, 300}

func fanouts(n int) []int { return []int{0, 1, 2, 8, n + 5} }

// TestForRunsEveryIndexOnce checks the contract For's callers rely on:
// every index runs exactly once, setup runs once per worker (at most
// min(workers, n) times, never at n = 0), each done follows its worker's
// last body, and one worker runs the indices in order on the caller's
// goroutine.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, workers := range fanouts(n) {
			name := fmt.Sprintf("n=%d/workers=%d", n, workers)
			runs := make([]atomic.Int32, n)
			var setups, dones atomic.Int32
			var mu sync.Mutex
			var order []int
			ok := For(n, workers, func() (func(int) bool, func()) {
				setups.Add(1)
				var mine []int // this worker's indices, in the order it ran them
				finished := false
				return func(i int) bool {
						if finished {
							t.Errorf("%s: body(%d) after its worker's done", name, i)
						}
						runs[i].Add(1)
						mine = append(mine, i)
						return true
					}, func() {
						finished = true
						dones.Add(1)
						mu.Lock()
						order = append(order, mine...)
						mu.Unlock()
					}
			})
			if !ok {
				t.Fatalf("%s: For = false with no body failing", name)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("%s: index %d ran %d times", name, i, c)
				}
			}
			want := int32(min(max(workers, 1), n))
			if s := setups.Load(); n > 0 && (s < 1 || s > want) || n == 0 && s != 0 {
				t.Fatalf("%s: %d setups, want 1..%d", name, s, want)
			}
			if dones.Load() != setups.Load() {
				t.Fatalf("%s: %d dones for %d setups", name, dones.Load(), setups.Load())
			}
			if workers <= 1 {
				for i, idx := range order {
					if idx != i {
						t.Fatalf("%s: position %d ran index %d, want index order", name, i, idx)
					}
				}
			}
		}
	}
}

// TestForStop makes the body at index k fail: For reports false, and no
// worker claims an index once it has seen the stop — the failing worker
// none at all. The failing worker raises the test's flag from its done,
// which runs after For has recorded the stop; a worker that saw the flag
// when its body started may finish that body, but must not start
// another. At one worker nothing after k runs.
func TestForStop(t *testing.T) {
	for _, n := range sizes[1:] {
		for _, workers := range fanouts(n) {
			for _, k := range []int{0, n / 2, n - 1} {
				name := fmt.Sprintf("n=%d/workers=%d/k=%d", n, workers, k)
				ran := make([]atomic.Bool, n)
				var stopped atomic.Bool
				var late atomic.Int32 // bodies started after their worker saw the stop
				ok := For(n, workers, func() (func(int) bool, func()) {
					seen, failed := false, false
					return func(i int) bool {
							if seen || failed {
								late.Add(1)
							}
							seen = stopped.Load()
							ran[i].Store(true)
							failed = i == k
							return !failed
						}, func() {
							if failed {
								stopped.Store(true)
							}
						}
				})
				if ok {
					t.Fatalf("%s: For = true after body(%d) returned false", name, k)
				}
				if !ran[k].Load() {
					t.Fatalf("%s: the failing index never ran", name)
				}
				if l := late.Load(); l != 0 {
					t.Fatalf("%s: %d indices claimed after their worker saw the stop", name, l)
				}
				if workers <= 1 {
					for i := k + 1; i < n; i++ {
						if ran[i].Load() {
							t.Fatalf("%s: index %d ran after the stop at one worker", name, i)
						}
					}
				}
			}
		}
	}
}
