package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/pli"
)

// AblationPairwiseConsistency measures the effect of the App. 12.3
// pruning (getFullMVDsOpt vs plain getFullMVDs): candidates visited (one
// J evaluation each) and wall time for a full phase-1 run. The two
// outputs are identical
// (TestPairwiseConsistencyOptimizationPreservesOutput). A row marked TL
// is a mine the budget cut off: its counts are how far it got before the
// budget, which varies from machine to machine, not a comparison.
// Expected shape: the optimization reduces visited candidates
// substantially at small ε.
func AblationPairwiseConsistency(cfg Config) string {
	rep := newReport(cfg.Out)
	spec, err := datagen.Lookup("Bridges", cfg.Scale)
	if err != nil {
		panic(err)
	}
	r := spec.Generate()
	rep.printf("Ablation: pairwise-consistency pruning (Bridges analog, %d cols, %d rows)\n",
		r.NumCols(), r.NumRows())
	rep.printf("%8s %8s %10s %10s %12s %10s %4s\n",
		"ε", "pruning", "#MVDs", "visited", "time", "pruned", "TL")
	for _, eps := range []float64{0, 0.1, 0.3} {
		for _, pruning := range []bool{true, false} {
			opts := core.DefaultOptions(eps)
			opts.PairwiseConsistency = pruning
			m := core.NewMiner(entropy.New(r), opts)
			start := time.Now()
			res, err := budgeted(cfg, m, m.MineMVDs)
			elapsed := time.Since(start)
			st := m.SearchStats()
			rep.printf("%8.2f %8v %10d %10d %12s %10d %4s\n",
				eps, pruning, len(res.MVDs), st.Visited,
				elapsed.Round(time.Millisecond), st.Pruned, tlMark(err != nil))
		}
	}
	return rep.String()
}

// AblationEntropyEngine measures the Sec. 6.3 engine choices: block size L
// and cache effectiveness, against direct per-query partition computation.
// The paper reads each H off CNT/TID tables; the one engine here reads the
// same class counts off the PLI cache's stripped partitions.
// L is the widest a block may be — the cache lays the columns out in
// max(2, ⌈n/L⌉) balanced blocks — so every L from half the column count up
// is the same two-block layout, and the sweep stops at the paper's 10.
// The workload is a fixed random set of attribute-set entropy queries.
func AblationEntropyEngine(cfg Config) string {
	rep := newReport(cfg.Out)
	spec, err := datagen.Lookup("Adult", cfg.Scale)
	if err != nil {
		panic(err)
	}
	r := spec.Generate()
	n := r.NumCols()
	rng := rand.New(rand.NewSource(99))
	queries := make([]bitset.AttrSet, 4000)
	for i := range queries {
		q := bitset.AttrSet(rng.Int63()) & bitset.Full(n)
		// Bias towards the small-to-mid sets mining actually asks for.
		q = q & bitset.AttrSet(rng.Int63())
		if q.IsEmpty() {
			q = bitset.Single(rng.Intn(n))
		}
		queries[i] = q
	}
	rep.printf("Ablation: entropy engine on %d queries (Adult analog, %d cols, %d rows)\n",
		len(queries), n, r.NumRows())
	rep.printf("%-22s %12s %12s %10s\n", "engine", "time", "intersects", "entries")
	for _, bs := range []int{1, 2, 4, 10} {
		o := entropy.NewShared(r, pli.Config{BlockSize: bs})
		start := time.Now()
		for _, q := range queries {
			o.H(q)
		}
		elapsed := time.Since(start)
		st := o.Stats()
		rep.printf("%-22s %12s %12d %10d\n",
			"blocked L≤"+strconv.Itoa(bs), elapsed.Round(time.Millisecond),
			st.PLIStats.Intersects, st.PLIStats.Entries)
	}
	// Direct recomputation baseline (no cache): FromAttrs per query.
	start := time.Now()
	for _, q := range queries {
		pli.FromAttrs(r, q).Entropy()
	}
	elapsed := time.Since(start)
	rep.printf("%-22s %12s %12s %10s\n", "direct (no cache)",
		elapsed.Round(time.Millisecond), "-", "-")
	return rep.String()
}
