// Scalability runs a miniature version of the paper's Sec. 8.3 study on
// one analog dataset: minimal-separator mining time as rows and columns
// grow. Row growth should look roughly linear (entropy scans dominate);
// column growth combinatorial (the separator search space explodes).
// Each configuration is a distinct (sampled or projected) relation, so
// each gets its own Session; the budget is the mine's context deadline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	maimon "repro"
	"repro/internal/bitset"
	"repro/internal/datagen"
)

func main() {
	dataset := flag.String("dataset", "Image", "Table-2 analog to scale")
	budget := flag.Duration("budget", 3*time.Second, "budget per configuration")
	flag.Parse()

	spec, err := datagen.Lookup(*dataset, 4000)
	if err != nil {
		log.Fatal(err)
	}
	full := spec.Generate()
	fmt.Printf("%s analog: %d rows × %d cols\n", spec.Name, full.NumRows(), full.NumCols())

	fmt.Println("\nrow scalability (all columns, ε = 0.01):")
	fmt.Printf("%10s %12s %10s\n", "rows", "time", "#minseps")
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		rows := int(frac * float64(full.NumRows()))
		sample := full.SampleRows(rows, 1)
		dur, count, tl := run(sample, 0.01, *budget)
		fmt.Printf("%10d %12s %10d%s\n", rows, dur.Round(time.Millisecond), count, tlMark(tl))
	}

	fmt.Println("\ncolumn scalability (all rows, ε = 0.01):")
	fmt.Printf("%10s %12s %10s\n", "cols", "time", "#minseps")
	for cols := 4; cols <= full.NumCols(); cols += 3 {
		var keep bitset.AttrSet
		for j := 0; j < cols; j++ {
			keep = keep.Add(j)
		}
		sub := full.KeepColumns(keep)
		dur, count, tl := run(sub, 0.01, *budget)
		fmt.Printf("%10d %12s %10d%s\n", cols, dur.Round(time.Millisecond), count, tlMark(tl))
	}
}

func run(r *maimon.Relation, eps float64, budget time.Duration) (time.Duration, int, bool) {
	sess, err := maimon.Open(r)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	res, merr := sess.MineMinSeps(ctx, maimon.WithEpsilon(eps))
	if res == nil {
		log.Fatal(merr)
	}
	return time.Since(start), res.NumMinSeps(), merr != nil
}

func tlMark(tl bool) string {
	if tl {
		return "  (TL)"
	}
	return ""
}
