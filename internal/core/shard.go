package core

import (
	"repro/internal/bitset"
	"repro/internal/mvd"
	"repro/internal/stripe"
)

// This file is the shard-scoped view of phase 1 for the distributed
// mining tier: assigning attribute pairs to shards by the same fmix64
// policy the PLI and entropy caches stripe by (internal/stripe), and
// mining exactly one shard's pairs without the cross-pair merge — the
// worker half of a coordinator/worker mine. The coordinator puts the
// per-pair outcomes of all shards back in canonical pair order and
// merges them with MergePairs, the merge MineMVDs runs on one node, so
// a distributed mine is byte-identical to a single-node one.

// ShardOfPair assigns the unordered attribute pair (a, b), a < b, to one
// of numShards shards by hashing the packed pair with the fmix64
// finalizer. The assignment is a pure function of the pair and the shard
// count — coordinator and workers never exchange pair lists, they derive
// them.
func ShardOfPair(a, b, numShards int) int {
	if numShards <= 1 {
		return 0
	}
	return int(stripe.Hash(uint64(a)<<32|uint64(b)) % uint64(numShards))
}

// ShardPairs enumerates the pairs of one shard in canonical order (a < b,
// lexicographic): the subsequence of allPairs(n) that ShardOfPair maps to
// shard. Over all shards the lists partition the full pair set.
func ShardPairs(n, shard, numShards int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if ShardOfPair(a, b, numShards) == shard {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// PairMVDs is one attribute pair's mining product in exported form: the
// pair's minimal separators and the full ε-MVDs expanded from them,
// locally deduplicated in discovery order — the unit phase 1's fan-out
// fills per pair, and a distributed worker ships back to its
// coordinator.
type PairMVDs struct {
	A, B int
	Seps []bitset.AttrSet
	MVDs []mvd.MVD // distinct, discovery order (pre cross-pair dedup)
}

// MinePairMVDs mines the given attribute pairs — separators, then full
// ε-MVDs per separator — and returns the per-pair outcomes without the
// cross-pair deduplication MineMVDs performs. Outcomes are indexed like
// pairs. Each pair's outcome is deterministic in isolation (the local
// dedup sees only that pair's finds), which is what lets a coordinator
// merge outcomes mined on different machines in canonical pair order and
// obtain exactly a single-node result.
//
// The error is nil, or the bound context's error when it stopped the
// mine; outcomes mined before the stop are valid, the rest are empty.
func (m *Miner) MinePairMVDs(pairs [][2]int) ([]PairMVDs, error) {
	return m.minePairMVDs(pairs, "mvds", true)
}
