// Nursery reproduces the paper's Sec. 8.1 use case interactively: mine
// acyclic schemes from the (reconstructed) Nursery dataset across a range
// of thresholds, report storage savings S and spurious-tuple rate E for
// each, and print the pareto-optimal schemes — the paper's Fig. 10.
//
// The whole sweep runs through ONE Session: every ε after the first mines
// against the warm oracle — the exact workload the session API exists
// for. The closing line reports how much of the entropy work the memo
// absorbed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"slices"
	"time"

	maimon "repro"
	"repro/internal/decompose"
)

func main() {
	budget := flag.Duration("budget", 5*time.Second, "mining budget per threshold")
	flag.Parse()

	r := maimon.Nursery()
	fmt.Printf("Nursery: %d rows × %d attributes = %d cells\n", r.NumRows(), r.NumCols(), r.Cells())

	sess, err := maimon.Open(r)
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		scheme *maimon.Scheme
		met    maimon.Metrics
	}
	var all []entry
	for _, eps := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
		ctx, cancel := context.WithTimeout(context.Background(), *budget)
		schemes, _, err := sess.MineSchemes(ctx, maimon.WithEpsilon(eps))
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
		for _, s := range schemes {
			if !slices.ContainsFunc(all, func(e entry) bool { return e.scheme.Schema.Equal(s.Schema) }) {
				all = append(all, entry{scheme: s})
			}
		}
		fmt.Printf("  ε=%.2f: %d distinct schemes so far\n", eps, len(all))
	}
	// One batch ranks them all: schemes of one relation share most of
	// their bags and separators, and a batch groups each of those once.
	// The budget is per mine; the ranking runs to the end.
	schemas := make([]maimon.Schema, len(all))
	for i, e := range all {
		schemas[i] = e.scheme.Schema
	}
	mets, errs := sess.AnalyzeAll(context.Background(), schemas)
	ranked := all[:0]
	for i, e := range all {
		if errs[i] == nil {
			e.met = mets[i]
			ranked = append(ranked, e)
		}
	}
	all = ranked

	points := make([]decompose.Point, len(all))
	for i, e := range all {
		points[i] = decompose.Point{Index: i, Savings: e.met.SavingsPct, Spurious: e.met.SpuriousPct}
	}
	fmt.Println("\npareto-optimal schemes (compare with the paper's Fig. 10):")
	fmt.Printf("%-8s %-8s %-8s %-3s  %s\n", "J", "S[%]", "E[%]", "m", "schema")
	for _, p := range decompose.ParetoFront(points) {
		e := all[p.Index]
		fmt.Printf("%-8.3f %-8.1f %-8.2f %-3d  %s\n",
			e.scheme.J, e.met.SavingsPct, e.met.SpuriousPct, e.scheme.M(),
			e.scheme.Schema.Format(r.Names()))
	}
	st := sess.Stats()
	fmt.Printf("\nsession oracle: %d H calls, %d (%.0f%%) served from the warm memo\n",
		st.HCalls, st.HCached, 100*float64(st.HCached)/float64(st.HCalls))
}
