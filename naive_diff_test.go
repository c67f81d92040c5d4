package maimon

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/mvd"
	"repro/internal/naive"
)

// TestSessionMatchesNaiveOracle is the differential test of phase 1 at the
// public surface against the brute-force oracle — truth, not our own
// earlier output: on small random relations, at every threshold, with
// pruning on and off, serial and fanned out, the minimal separators of
// every attribute pair must be exactly naive.MinSeps, and the mined
// ε-MVDs exactly the union of naive.FullMVDs over those separators.
func TestSessionMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	var rels []*Relation
	for i := 0; i < 20; i++ {
		cols := 4 + rng.Intn(4) // ≤ 7 columns keeps the oracle cheap
		rels = append(rels, datagen.Uniform(16+rng.Intn(30), cols, 2, rng.Int63()))
		planted, _, err := datagen.Planted(datagen.PlantedSpec{
			Bags: datagen.ChainBags(cols, 3, 1), Seed: rng.Int63(), RootTuples: 4, ExtPerSep: 2, NoiseCells: 0.03,
		})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, planted)
	}
	ctx := context.Background()
	nontrivial := 0
	for ri, r := range rels {
		s, err := Open(r)
		if err != nil {
			t.Fatal(err)
		}
		oracle := entropy.New(r)
		n := r.NumCols()
		for _, eps := range []float64{0, 0.05, 0.2} {
			wantSeps := map[core.Pair][]AttrSet{}
			var wantMVDs []MVD
			seen := map[string]bool{}
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					seps := naive.MinSeps(oracle, a, b, eps)
					if len(seps) > 0 {
						wantSeps[core.Pair{A: a, B: b}] = seps
					}
					for _, sep := range seps {
						for _, phi := range naive.FullMVDs(oracle, sep, a, b, eps) {
							if key := phi.String(); !seen[key] {
								seen[key] = true
								wantMVDs = append(wantMVDs, phi)
							}
						}
					}
				}
			}
			mvd.Sort(wantMVDs)
			nontrivial += len(wantMVDs)
			for _, pruning := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("relation %d (%d×%d) eps=%v pruning=%v workers=%d",
						ri, r.NumRows(), n, eps, pruning, workers)
					var res *MVDResult
					if pruning {
						res, err = s.MineMVDs(ctx, WithEpsilon(eps), WithWorkers(workers))
					} else {
						// The session always prunes: the ablation mines
						// through the core miner.
						opts := core.DefaultOptions(eps)
						opts.PairwiseConsistency = false
						opts.Workers = workers
						res, err = core.NewMiner(entropy.New(r), opts).MineMVDs()
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(res.MinSeps) != len(wantSeps) {
						t.Fatalf("%s: separators for %d pairs, oracle has %d", label, len(res.MinSeps), len(wantSeps))
					}
					for p, want := range wantSeps {
						if got := res.MinSeps[p]; !slices.Equal(got, want) {
							t.Fatalf("%s pair %v: minimal separators %v, oracle %v", label, p, got, want)
						}
					}
					if !slices.EqualFunc(res.MVDs, wantMVDs, MVD.Equal) {
						t.Fatalf("%s: mined %v, oracle %v", label, res.MVDs, wantMVDs)
					}
				}
			}
		}
	}
	t.Logf("oracle MVDs compared: %d", nontrivial)
	if nontrivial == 0 {
		t.Fatal("the oracle found no MVD on any relation: the test compares nothing")
	}
}
