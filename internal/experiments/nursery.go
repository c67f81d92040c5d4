package experiments

import (
	"repro/internal/datagen"
	"repro/internal/decompose"
	"repro/internal/entropy"
)

// Fig10Nursery reproduces the Sec. 8.1 use case (Figs. 10 and 11): mine
// acyclic schemes from the reconstructed Nursery dataset across the ε
// sweep, report every scheme's J-measure, storage savings S and
// spurious-tuple rate E, and print the pareto-optimal schemes (the ten
// highlighted in Fig. 10) followed by the Fig. 11 scatter summary.
func Fig10Nursery(cfg Config) string {
	rep := newReport(cfg.Out)
	r := datagen.Nursery()
	rep.printf("Nursery use case (Figs. 10-11): %d rows, %d attributes, %d cells\n",
		r.NumRows(), r.NumCols(), r.Cells())

	o := entropy.New(r) // shared across the ε sweep, as a Session would
	perEps := make([][]schemeStats, 0, len(cfg.epsilons()))
	for _, eps := range cfg.epsilons() {
		perEps = append(perEps, cfg.collectSchemes(o, eps, 200))
	}
	all := dedupeSchemes(perEps...)
	rep.printf("schemes discovered across ε ∈ %v: %d (paper: 415 over [0,0.5])\n",
		cfg.epsilons(), len(all))

	points := make([]decompose.Point, len(all))
	for i, st := range all {
		points[i] = decompose.Point{
			Index:    i,
			Savings:  st.metrics.SavingsPct,
			Spurious: st.metrics.SpuriousPct,
		}
	}
	front := decompose.ParetoFront(points)

	rep.printf("\nFig. 10: pareto-optimal schemes (J, savings S%%, spurious E%%, m):\n")
	rep.printf("%-8s %-9s %-9s %-3s  %s\n", "J", "S[%]", "E[%]", "m", "schema")
	for _, p := range front {
		st := all[p.Index]
		rep.printf("%-8.3f %-9.1f %-9.2f %-3d  %s\n",
			st.scheme.J, st.metrics.SavingsPct, st.metrics.SpuriousPct,
			st.scheme.M(), st.scheme.Schema.Format(r.Names()))
	}

	rep.printf("\nFig. 11: all schemes (savings vs spurious), one row per scheme:\n")
	rep.printf("%-8s %-9s %-9s %-3s\n", "J", "S[%]", "E[%]", "m")
	for _, st := range all {
		rep.printf("%-8.3f %-9.1f %-9.2f %-3d\n",
			st.scheme.J, st.metrics.SavingsPct, st.metrics.SpuriousPct, st.scheme.M())
	}
	return rep.String()
}
