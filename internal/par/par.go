// Package par is the fan-out every parallel loop of the miner runs on:
// phase 1's attribute pairs, phase 2's incompatibility-graph rows and the
// ranking of schemes. Each is a loop over independent indices whose
// results are written at their index, so the order workers claim them in
// never changes an output byte.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs body(i) for every i in [0, n) on up to workers goroutines and
// reports whether every body ran to completion.
//
// Each worker calls setup once for its own state and the body over it,
// then claims indices off one shared cursor, in index order, until none
// are left. workers is clamped to n; at ≤ 1 worker setup and every body
// run on the calling goroutine, indices 0…n−1 in order, and n = 0 runs
// no setup. A body that returns false stops all further claims: bodies
// already running finish, no worker claims another index, and For
// returns false. done, when non-nil, runs on its worker's goroutine after
// that worker's last body; every done has run before For returns.
func For(n, workers int, setup func() (body func(i int) bool, done func())) (completed bool) {
	if n <= 0 {
		return true
	}
	if workers = min(workers, n); workers <= 1 {
		body, done := setup()
		if done != nil {
			defer done()
		}
		for i := range n {
			if !body(i) {
				return false
			}
		}
		return true
	}
	var s struct {
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	}
	s.wg.Add(workers)
	for range workers {
		go func() {
			defer s.wg.Done()
			body, done := setup()
			if done != nil {
				defer done()
			}
			for !s.stop.Load() {
				i := int(s.next.Add(1)) - 1
				if i >= n {
					return
				}
				if !body(i) {
					s.stop.Store(true)
				}
			}
		}()
	}
	s.wg.Wait()
	return !s.stop.Load()
}
