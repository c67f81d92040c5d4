// Package stripe holds the repository's one sharded cache layer: Store,
// the sharded, single-flight, byte-budgeted map under the PLI partition
// cache, the entropy memo and the search's key memo; Clock, the
// second-chance rule its budget evicts by; Table, the single-goroutine
// probe table; Words, the single-writer probe table a mining worker
// fronts a Store with and its peers read; and the power-of-two
// shard count and the hash of a 64-bit key (an AttrSet, a uint64 of
// attribute bits) they share.
package stripe

import "runtime"

// maxShards bounds the shard count: past a few hundred shards the maps
// are so small that the per-shard fixed cost dominates.
const maxShards = 256

// Count resolves a configured shard count: n itself rounded up to a
// power of two when positive, otherwise a default derived from
// GOMAXPROCS (at least 8, so a process that grows its P count mid-life
// still spreads load). The result is always a power of two in
// [1, maxShards].
func Count(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Hash finalizes a 64-bit key so that near-identical attribute sets
// (which differ in a few low bits) land on different shards. It is the
// 64-bit finalizer of MurmurHash3 (fmix64).
func Hash(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
