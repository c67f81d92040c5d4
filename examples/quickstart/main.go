// Quickstart: mine approximate MVDs and acyclic schemes from the paper's
// running example (Fig. 1), with and without the "red" dirty tuple that
// breaks the exact decomposition — the smallest end-to-end tour of the
// public API. One Session per relation: the dirty relation is mined at
// two thresholds through the same session, so the second mine reuses
// every entropy the first one computed.
package main

import (
	"context"
	"fmt"
	"log"

	maimon "repro"
)

func main() {
	names := []string{"A", "B", "C", "D", "E", "F"}
	clean := [][]string{
		{"a1", "b1", "c1", "d1", "e1", "f1"},
		{"a2", "b2", "c1", "d1", "e2", "f2"},
		{"a2", "b2", "c2", "d2", "e3", "f2"},
		{"a1", "b2", "c1", "d2", "e3", "f1"},
	}
	red := []string{"a1", "b2", "c1", "d2", "e2", "f1"}

	fmt.Println("== exact mining on the clean 4-tuple relation (ε = 0) ==")
	r, err := maimon.FromRows(names, clean)
	if err != nil {
		log.Fatal(err)
	}
	cleanSess, err := maimon.Open(r)
	if err != nil {
		log.Fatal(err)
	}
	run(cleanSess, 0)

	fmt.Println("\n== the red tuple breaks exactness; mine at ε = 0 and ε = 0.2 ==")
	dirty, err := maimon.FromRows(names, append(clean, red))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := maimon.Open(dirty)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's support MVD BD ↠ E|ACF no longer holds exactly:
	phi, err := maimon.ParseMVD("BD->E|ACF")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("J(BD ↠ E|ACF) on dirty data = %.3f bits\n", sess.J(phi))
	run(sess, 0)
	run(sess, 0.2) // warm re-mine: same session, new threshold
	st := sess.Stats()
	fmt.Printf("\nwarm-oracle reuse across the two mines: %d/%d H calls served from the memo\n",
		st.HCached, st.HCalls)
}

func run(sess *maimon.Session, eps float64) {
	r := sess.Relation()
	schemes, result, err := sess.MineSchemes(context.Background(),
		maimon.WithEpsilon(eps), maimon.WithMaxSchemes(6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε=%.2f: %d full MVDs, e.g.:\n", eps, len(result.MVDs))
	for i, m := range result.MVDs {
		if i == 3 {
			fmt.Println("   ...")
			break
		}
		fmt.Printf("   %s\n", m.Format(r.Names()))
	}
	schemas := make([]maimon.Schema, len(schemes))
	for i, s := range schemes {
		schemas[i] = s.Schema
	}
	mets, errs := sess.AnalyzeAll(schemas)
	for i, s := range schemes {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		fmt.Printf("   scheme %-46s J=%.3f spurious=%.0f%%\n",
			s.Schema.Format(r.Names()), s.J, mets[i].SpuriousPct)
	}
}
