package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Host normalisation.
//
// The box this benchmark was sized on is a 2-core VM on a shared host, and
// what it shares is the memory system: for minutes at a time the same
// memory-bound mine takes 20–40 % more user CPU than a minute before,
// while an ALU loop beside it does not move by 2 %. The driver compares
// runs made minutes and hours apart, so raw seconds carry the host's
// phases into every comparison.
//
// So every timed op is preceded by a calibration: a child process that
// does a fixed amount of work of the mines' kind — allocate and fill fresh
// slices, stream over them into a small count table, read them at random
// — on as many goroutines as the ops get cores. It contains no product
// code, so it costs the same before and after any change to the product.
//
// Across runs the logarithm of a run's median op time follows that of its
// median calibration time closely (r = 0.88–0.95 on each of the five
// workloads, twenty runs each) but not one for one: the kernel is all
// memory traffic and moves more than a mine does (slopes 0.48–0.66). So an
// op's time is modelled as a share memShare that scales with the
// calibration and a rest that does not,
//
//	measured = quiet × ((1 − memShare) + memShare × calibration/calRef),
//
// and a run reports quiet: its median op time on a host in the state where
// a calibration takes calRef. In an hour in which the raw medians of ten
// runs spread by 4–17 % (interquartile range over median) the reported ones
// spread by 2–10 %, and two sets of ten differed by at most 4 % where the
// raw ones differed by up to 15 %. README.md has the tables. The printed listing
// shows the raw medians and the factor.

// calRef is what one calibration takes in a quiet phase of the 2-core box
// this was sized on, and memShare the memory-bound share of a mine there.
// Changing either, or the kernel below, rescales every wall_s and cpu_s:
// the baseline must be measured again.
const (
	calRef   = 0.200 // seconds
	memShare = 0.5
)

const (
	calChunks   = 256        // slices allocated per goroutine (a power of two) …
	calChunkLen = 32 << 10   // … of this many int32 each (128 KiB: a partition of a 32k-row relation)
	calPasses   = 12         // count passes over all of them
	calCountLen = 1 << 14    // count table entries (64 KiB: stays in L2)
	calReads    = 12_000_000 // random reads over all of them
)

// calKernel is one goroutine's share of a calibration. The result is
// returned so the compiler cannot drop the work.
func calKernel(seed uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Fresh memory: page faults, zeroing, streaming writes.
	parts := make([][]int32, calChunks)
	for i := range parts {
		p := make([]int32, calChunkLen)
		for j := range p {
			p[j] = int32(next() & (calCountLen - 1))
		}
		parts[i] = p
	}
	// The count kernel's access pattern: streaming reads, scattered
	// increments in a table that fits the cache.
	counts := make([]int32, calCountLen)
	for pass := 0; pass < calPasses; pass++ {
		for _, p := range parts {
			for _, v := range p {
				counts[v]++
			}
		}
	}
	// A lookup structure's: reads scattered over 32 MiB, eight times the
	// L2, so where the process's pages happened to land matters little and
	// what the rest of the host does to L3 and memory matters a lot. (A Go
	// map of a few MB was tried first: its time moved ±30 % from process
	// to process on a quiet host.)
	var sum uint64
	for i := 0; i < calReads; i++ {
		r := next()
		sum += uint64(parts[r&(calChunks-1)][(r>>8)&(calChunkLen-1)])
	}
	return sum + uint64(counts[1])
}

var calSink atomic.Uint64

// calibrateChild is the body of the "calibrate" child: the kernel on every
// core the ops get (GOMAXPROCS is pinned in the child's environment).
func calibrateChild([]string) error {
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSink.Store(calKernel(uint64(g) + 1))
		}()
	}
	wg.Wait()
	return nil
}

// calibrate runs one calibration and returns its wall-clock in seconds,
// spawn to exit like an op's.
func (e *env) calibrate(ctx context.Context) (float64, error) {
	_, st, err := e.childStats(ctx, "calibrate")
	return st.Wall.Seconds(), err
}

// hostFactor is what a run multiplies its op times by.
func hostFactor(cals []float64) float64 {
	if len(cals) == 0 {
		return 1
	}
	return 1 / ((1 - memShare) + memShare*median(cals)/calRef)
}
