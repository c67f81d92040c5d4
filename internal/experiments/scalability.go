package experiments

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/relation"
)

// fig13Epsilons are the thresholds of the scalability plots (Sec. 8.3).
var fig13Epsilons = []float64{0, 0.01, 0.1}

// Fig13Rows reproduces the row-scalability experiment (Fig. 13): minimal-
// separator mining time as the number of rows grows from 10% to 100% on
// the three largest datasets (Image, Four Square, Ditag Feature analogs).
// Expected shape: runtime grows roughly linearly with rows while the
// number of minimal separators stays mostly flat.
func Fig13Rows(cfg Config) string {
	rep := newReport(cfg.Out)
	fractions := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	for _, name := range []string{"Image", "Four Square (Spots)", "Ditag Feature"} {
		spec, err := datagen.Lookup(name, cfg.Scale)
		if err != nil {
			panic(err)
		}
		full := spec.Generate()
		rep.printf("\nFig. 13 (%s analog): %d cols, %d rows total\n",
			name, full.NumCols(), full.NumRows())
		rep.printf("%8s %8s", "rows", "ε")
		rep.printf(" %12s %10s %4s\n", "time", "#minseps", "TL")
		for _, frac := range fractions {
			rows := int(frac * float64(full.NumRows()))
			if rows < 10 {
				continue
			}
			sample := full.SampleRows(rows, int64(spec.PaperRows%7919+1))
			for _, eps := range fig13Epsilons {
				elapsed, count, timedOut := timeMinSeps(cfg, sample, eps)
				rep.printf("%8d %8.2f %12s %10d %4s\n",
					rows, eps, elapsed.Round(time.Millisecond), count, tlMark(timedOut))
			}
		}
	}
	return rep.String()
}

// Fig14Cols reproduces the column-scalability experiment (Fig. 14):
// minimal-separator mining as the number of columns grows, on the
// wide-table analogs (Entity Source, Voter State, Census). Expected
// shape: runtime grows combinatorially with columns; wide prefixes hit
// the time limit, and the number of separators found within the limit
// drops as the per-separator delay grows.
func Fig14Cols(cfg Config) string {
	rep := newReport(cfg.Out)
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	for _, name := range []string{"Entity Source", "Voter State", "Census"} {
		spec, err := datagen.Lookup(name, cfg.Scale)
		if err != nil {
			panic(err)
		}
		full := spec.Generate()
		rep.printf("\nFig. 14 (%s analog): %d cols, %d rows\n",
			name, full.NumCols(), full.NumRows())
		rep.printf("%8s %8s %12s %10s %4s\n", "cols", "ε", "time", "#minseps", "TL")
		for _, frac := range fractions {
			cols := int(frac * float64(full.NumCols()))
			if cols < 4 {
				continue
			}
			var keep bitset.AttrSet
			for j := 0; j < cols; j++ {
				keep = keep.Add(j)
			}
			sub := full.KeepColumns(keep)
			for _, eps := range fig13Epsilons {
				elapsed, count, timedOut := timeMinSeps(cfg, sub, eps)
				rep.printf("%8d %8.2f %12s %10d %4s\n",
					cols, eps, elapsed.Round(time.Millisecond), count, tlMark(timedOut))
			}
		}
	}
	return rep.String()
}

// timeMinSeps runs the separator phase for all pairs under a deadline.
func timeMinSeps(cfg Config, r *relation.Relation, eps float64) (time.Duration, int, bool) {
	m := cfg.minerFor(entropy.New(r), eps)
	start := time.Now()
	res, err := budgeted(cfg, m, m.MineMinSepsAll)
	return time.Since(start), res.NumMinSeps(), err != nil
}

func tlMark(timedOut bool) string {
	if timedOut {
		return "TL"
	}
	return ""
}
