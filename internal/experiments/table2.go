package experiments

import (
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/entropy"
)

// Table2 reproduces Table 2: for each of the 20 datasets (synthetic
// analogs; see datagen.DatasetSpec), mine full MVDs at ε = 0 under a time limit and
// report runtime and the number of full MVDs, alongside the paper's
// reference values. The shape to compare: which datasets finish fast,
// which hit the limit, and how counts scale with column count.
func Table2(cfg Config) string {
	rep := newReport(cfg.Out)
	rep.printf("Table 2: full MVD mining at threshold 0.0 (budget %v per dataset)\n", cfg.budget())
	rep.printf("%-22s %5s %9s %7s | %12s %9s | %12s %9s\n",
		"Dataset", "Cols", "PaperRows", "Rows",
		"PaperTime[s]", "PaperMVDs", "Time", "FullMVDs")
	for _, spec := range datagen.Registry(cfg.Scale) {
		r := spec.Generate()
		m := cfg.minerFor(entropy.New(r), 0)
		start := time.Now()
		res, err := budgeted(cfg, m, m.MineMVDs)
		elapsed := time.Since(start)
		timeStr := elapsed.Round(time.Millisecond).String()
		if err != nil {
			timeStr = "TL"
		}
		rep.printf("%-22s %5d %9d %7d | %12s %9s | %12s %9s\n",
			spec.Name, spec.PaperCols, spec.PaperRows, r.NumRows(),
			spec.PaperRuntime, spec.PaperFullMVDs, timeStr, strconv.Itoa(len(res.MVDs)))
	}
	return rep.String()
}
