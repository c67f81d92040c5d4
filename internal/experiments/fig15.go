package experiments

import (
	"strconv"

	"repro/internal/datagen"
	"repro/internal/entropy"
)

// fig15Datasets are the eight datasets of Fig. 15.
var fig15Datasets = []string{
	"Image", "Abalone", "Adult", "Breast-Cancer",
	"Bridges", "Echocardiogram", "FD_Reduced_15", "Hepatitis",
}

// Fig15Quality reproduces Fig. 15: per threshold ε, the number of schemes
// enumerated within the budget, the maximum number of relations over those
// schemes, and the minimum width and intersection width. Expected shape:
// as ε grows, schemes decompose further (max #relations up, min width
// down) — the paper's indicator that approximation buys decomposition.
func Fig15Quality(cfg Config) string {
	rep := newReport(cfg.Out)
	for _, name := range fig15Datasets {
		spec, err := datagen.Lookup(name, cfg.Scale)
		if err != nil {
			panic(err)
		}
		r := spec.Generate()
		rep.printf("\nFig. 15 (%s analog): %d cols, %d rows\n", name, r.NumCols(), r.NumRows())
		rep.printf("%8s %9s %11s %9s %10s\n", "ε", "#schemes", "#relations", "width", "intWidth")
		o := entropy.New(r) // shared across the ε sweep
		for _, eps := range cfg.epsilons() {
			stats := cfg.collectSchemes(o, eps, 100)
			rep.printf("%8.2f %9d %11d %9s %10s\n",
				eps, len(stats), maxRelations(stats), minWidth(stats), minIntWidth(stats))
		}
	}
	return rep.String()
}

func maxRelations(stats []schemeStats) int {
	best := 0
	for _, st := range stats {
		if st.scheme.M() > best {
			best = st.scheme.M()
		}
	}
	return best
}

func minWidth(stats []schemeStats) string {
	best := -1
	for _, st := range stats {
		if w := st.scheme.Schema.Width(); best < 0 || w < best {
			best = w
		}
	}
	return orDash(best)
}

func minIntWidth(stats []schemeStats) string {
	best := -1
	for _, st := range stats {
		if w := st.scheme.Schema.IntersectionWidth(); best < 0 || w < best {
			best = w
		}
	}
	return orDash(best)
}

func orDash(v int) string {
	if v < 0 {
		return "-"
	}
	return strconv.Itoa(v)
}
