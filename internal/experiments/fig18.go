package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entropy"
)

// fig18Datasets are the four datasets of Fig. 18 / Sec. 14.1.
var fig18Datasets = []string{"Classification", "Breast-Cancer", "Adult", "Bridges"}

// Fig18FullMVDs reproduces the minimal-separators-to-full-MVDs experiment
// (Fig. 18, Sec. 14.1) with the paper's protocol: minimal separators are
// mined first (not timed), then getFullMVDs runs with unlimited K over
// every (pair, separator) under the time budget, and we report the
// count of *distinct* separators, the full-MVD count, and the generation
// rate. Expected shapes: at ε = 0 the two counts coincide when expansion
// completes (at most one full MVD per key, Lemma 5.4); as ε grows full
// MVDs outnumber separators, and generation sustains tens to thousands of
// MVDs per second. The rate is not one search per (pair, separator): a
// miner searches each key and pair of root dependents once, so a later
// pair whose a and b fall in dependents an earlier pair already searched
// reads the settled list.
func Fig18FullMVDs(cfg Config) string {
	rep := newReport(cfg.Out)
	for _, name := range fig18Datasets {
		spec, err := datagen.Lookup(name, cfg.Scale)
		if err != nil {
			panic(err)
		}
		r := spec.Generate()
		rep.printf("\nFig. 18 (%s analog): %d cols, %d rows\n", name, r.NumCols(), r.NumRows())
		rep.printf("%8s %10s %10s %12s %10s %4s\n",
			"ε", "#minseps", "#fullMVDs", "time", "MVDs/s", "TL")
		for _, eps := range cfg.epsilons() {
			// One oracle per ε, shared across the two phases only: phase B
			// starts with every entropy phase A computed (the paper's
			// protocol leaves separator mining untimed), but each ε stays
			// cold so the timed generation rate is not order-dependent on
			// the sweep.
			o := entropy.New(r)
			// Phase A (untimed): minimal separators for every pair.
			m := cfg.minerFor(o, eps)
			seps, sepsErr := budgeted(cfg, m, m.MineMinSepsAll)

			// Phase B (timed): expand each separator to its full MVDs.
			count, elapsed, timedOut := expandFullMVDs(cfg, cfg.minerFor(o, eps), seps)
			rate := 0.0
			if secs := elapsed.Seconds(); secs > 0 {
				rate = float64(count) / secs
			}
			rep.printf("%8.2f %10d %10d %12s %10.1f %4s\n",
				eps, len(seps.Separators()), count,
				elapsed.Round(time.Millisecond), rate,
				tlMark(timedOut || sepsErr != nil))
		}
	}
	return rep.String()
}

// expandFullMVDs is Fig. 18's phase B: every mined separator of every
// pair expanded to its full MVDs by m, under one budget (the context
// budgeted binds), so a long GetFullMVDs stops mid-search rather than
// overrunning the budget. It returns the number of distinct full MVDs,
// the time taken and whether the budget ended the phase; a list returned
// after the budget ended may be partial and is not counted.
func expandFullMVDs(cfg Config, m *core.Miner, seps *core.MVDResult) (count int, elapsed time.Duration, timedOut bool) {
	seen := map[string]bool{}
	start := time.Now()
	count, err := budgeted(cfg, m, func() (int, error) {
		for _, p := range seps.SortedPairs() {
			for _, sep := range seps.MinSeps[p] {
				mvds := m.GetFullMVDs(sep, p.A, p.B)
				if err := m.Context().Err(); err != nil {
					return len(seen), err
				}
				for _, phi := range mvds {
					seen[phi.Fingerprint()] = true
				}
			}
		}
		return len(seen), nil
	})
	return count, time.Since(start), err != nil
}
