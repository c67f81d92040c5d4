package core

import (
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mvd"
)

// TestShardPairsPartition pins the contract the distributed tier is built
// on: over all shards, ShardPairs partitions allPairs(n) — every pair in
// exactly one shard, each shard's list in canonical order.
func TestShardPairsPartition(t *testing.T) {
	for _, n := range []int{3, 5, 9, 16, 40} {
		for _, numShards := range []int{1, 2, 3, 4, 7, 8, 100} {
			seen := make(map[[2]int]int)
			for s := 0; s < numShards; s++ {
				pairs := ShardPairs(n, s, numShards)
				prev := [2]int{-1, -1}
				for _, p := range pairs {
					if p[0] >= p[1] {
						t.Fatalf("n=%d shards=%d: non-canonical pair %v", n, numShards, p)
					}
					if p[0] < prev[0] || (p[0] == prev[0] && p[1] <= prev[1]) {
						t.Fatalf("n=%d shards=%d shard=%d: pairs out of order: %v after %v", n, numShards, s, p, prev)
					}
					prev = p
					if prior, dup := seen[p]; dup {
						t.Fatalf("n=%d shards=%d: pair %v in shards %d and %d", n, numShards, p, prior, s)
					}
					seen[p] = s
				}
			}
			if want := n * (n - 1) / 2; len(seen) != want {
				t.Fatalf("n=%d shards=%d: %d pairs covered, want %d", n, numShards, len(seen), want)
			}
		}
	}
}

// TestShardOfPairStable pins the hash assignment: a pure function, stable
// across calls, in range.
func TestShardOfPairStable(t *testing.T) {
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			s := ShardOfPair(a, b, 8)
			if s < 0 || s >= 8 {
				t.Fatalf("ShardOfPair(%d,%d,8) = %d out of range", a, b, s)
			}
			if again := ShardOfPair(a, b, 8); again != s {
				t.Fatalf("ShardOfPair(%d,%d,8) unstable: %d then %d", a, b, s, again)
			}
		}
	}
	if got := ShardOfPair(3, 7, 1); got != 0 {
		t.Fatalf("single shard must absorb everything, got %d", got)
	}
}

// TestShardPairsSpread sanity-checks the fmix64 spread: with plenty of
// pairs no shard may end up empty (a degenerate hash would starve
// workers).
func TestShardPairsSpread(t *testing.T) {
	const n, numShards = 24, 8 // 276 pairs over 8 shards
	for s := 0; s < numShards; s++ {
		if len(ShardPairs(n, s, numShards)) == 0 {
			t.Fatalf("shard %d/%d empty for n=%d", s, numShards, n)
		}
	}
}

// TestShardedWorkersMatchSingleNode is the distributed determinism
// contract at the core layer: mining each shard's pairs with its own
// miner over its own fresh oracle (as N separate worker processes would)
// and merging the per-pair outcomes in canonical pair order with a
// global fingerprint dedup must reproduce MineMVDs byte for byte.
func TestShardedWorkersMatchSingleNode(t *testing.T) {
	for name, r := range parallelTestRelations(t) {
		for _, eps := range []float64{0, 0.1} {
			opts := DefaultOptions(eps)
			opts.Workers = 1
			single, err := NewMiner(shared(r), opts).MineMVDs()
			if err != nil {
				t.Fatalf("%s eps=%v: single-node error %v", name, eps, err)
			}
			n := r.NumCols()
			for _, numShards := range []int{1, 3, 4} {
				byPair := make(map[[2]int]PairMVDs)
				for s := 0; s < numShards; s++ {
					pairs := ShardPairs(n, s, numShards)
					wopts := DefaultOptions(eps)
					wopts.Workers = 2 // worker-local fan-out must not matter
					outs, err := NewMiner(shared(r), wopts).MinePairMVDs(pairs)
					if err != nil {
						t.Fatalf("%s eps=%v shard %d/%d: %v", name, eps, s, numShards, err)
					}
					for _, out := range outs {
						byPair[[2]int{out.A, out.B}] = out
					}
				}
				// The coordinator's merge: canonical pair order, global dedup,
				// final canonical sort — exactly minePairs' merge.
				merged := &MVDResult{MinSeps: make(map[Pair][]bitset.AttrSet)}
				seen := make(map[string]bool)
				for _, p := range allPairs(n) {
					out, ok := byPair[p]
					if !ok {
						t.Fatalf("%s eps=%v shards=%d: pair %v missing from shard outcomes", name, eps, numShards, p)
					}
					if len(out.Seps) > 0 {
						merged.MinSeps[Pair{out.A, out.B}] = out.Seps
					}
					for _, phi := range out.MVDs {
						if fp := phi.Fingerprint(); !seen[fp] {
							seen[fp] = true
							merged.MVDs = append(merged.MVDs, phi)
						}
					}
				}
				mvd.Sort(merged.MVDs)
				if !reflect.DeepEqual(merged.MVDs, single.MVDs) {
					t.Fatalf("%s eps=%v shards=%d: merged MVDs differ from single-node", name, eps, numShards)
				}
				if !reflect.DeepEqual(merged.MinSeps, single.MinSeps) {
					t.Fatalf("%s eps=%v shards=%d: merged MinSeps differ from single-node", name, eps, numShards)
				}
			}
		}
	}
}

// TestShardedUnionMatchesAllPairs pins that concatenating every shard's
// pairs and sorting canonically reproduces allPairs — the coordinator's
// merge iterates exactly this sequence.
func TestShardedUnionMatchesAllPairs(t *testing.T) {
	const n, numShards = 12, 4
	byPair := make(map[[2]int]bool)
	for s := 0; s < numShards; s++ {
		for _, p := range ShardPairs(n, s, numShards) {
			byPair[p] = true
		}
	}
	var got [][2]int
	for _, p := range allPairs(n) {
		if byPair[p] {
			got = append(got, p)
		}
	}
	if !reflect.DeepEqual(got, allPairs(n)) {
		t.Fatalf("sharded union does not reproduce allPairs(%d)", n)
	}
}
