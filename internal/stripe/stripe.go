// Package stripe holds the tiny shared pieces of the repo's sharded
// cache layer: a power-of-two shard count, the hash of a 64-bit key (an
// AttrSet, a uint64 of attribute bits) to a shard, and the Clock.
//
// Both the PLI partition cache and the entropy memo shard the same way —
// N power-of-two shards indexed by a finalized hash of the attribute
// set — and choose victims by the same rule, so both live here once.
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
