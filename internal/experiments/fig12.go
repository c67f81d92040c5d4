package experiments

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/relation"
)

// fig12Datasets are the four datasets of Fig. 12 (BreastCancer, Bridges,
// Nursery, Echocardiogram); Nursery is the exact reconstruction, the rest
// are analogs.
func fig12Datasets(scale int) []struct {
	name string
	rel  *relation.Relation
} {
	var out []struct {
		name string
		rel  *relation.Relation
	}
	add := func(name string, r *relation.Relation) {
		out = append(out, struct {
			name string
			rel  *relation.Relation
		}{name, r})
	}
	for _, name := range []string{"Breast-Cancer", "Bridges"} {
		spec, err := datagen.Lookup(name, scale)
		if err != nil {
			panic(err)
		}
		add(name, spec.Generate())
	}
	add("Nursery", datagen.Nursery())
	spec, err := datagen.Lookup("Echocardiogram", scale)
	if err != nil {
		panic(err)
	}
	add("Echocardiogram", spec.Generate())
	return out
}

// Fig12SpuriousVsJ reproduces Fig. 12: schemes are mined across the ε
// sweep, bucketed by their J-measure, and the per-bucket quantiles of the
// spurious-tuple percentage are reported. The paper's observation to
// reproduce: E grows monotonically with J, and E = 0 iff J = 0.
func Fig12SpuriousVsJ(cfg Config) string {
	rep := newReport(cfg.Out)
	buckets := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 1e18}
	for _, ds := range fig12Datasets(cfg.Scale) {
		o := entropy.New(ds.rel) // one warm oracle per dataset, shared across the sweep
		perEps := make([][]schemeStats, 0, len(cfg.epsilons()))
		for _, eps := range cfg.epsilons() {
			perEps = append(perEps, cfg.collectSchemes(o, eps, 150))
		}
		all := dedupeSchemes(perEps...)
		rep.printf("\nFig. 12 (%s): %d schemes; spurious%% quantiles per J bucket\n", ds.name, len(all))
		rep.printf("%-14s %6s %9s %9s %9s %9s %9s\n",
			"J bucket", "count", "min", "q25", "median", "q75", "max")
		for bi := 0; bi+1 < len(buckets); bi++ {
			lo, hi := buckets[bi], buckets[bi+1]
			var es []float64
			for _, st := range all {
				if st.scheme.J >= lo && st.scheme.J < hi {
					es = append(es, st.metrics.SpuriousPct)
				}
			}
			if len(es) == 0 {
				continue
			}
			min, q25, med, q75, max := quantiles(es)
			label := bucketLabel(lo, hi)
			rep.printf("%-14s %6d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
				label, len(es), min, q25, med, q75, max)
		}
	}
	return rep.String()
}

func bucketLabel(lo, hi float64) string {
	if hi > 1e17 {
		return fmt.Sprintf("[%.2f,inf)", lo)
	}
	return fmt.Sprintf("[%.2f,%.2f)", lo, hi)
}
