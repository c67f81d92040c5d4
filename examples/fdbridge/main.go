// Fdbridge shows the relationship between functional dependencies and
// MVDs that the paper builds on (Sec. 1): FDs are special cases of MVDs —
// every exact FD X→A lifts to the exact MVD X ↠ A | rest — but mining all
// FDs and UCCs is insufficient to discover acyclic schemes. We mine both
// dependency families over the same data and cross-check them; the MVD
// side runs through one Session, so the per-FD J evaluations and the full
// MVD mine share a single warm oracle.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/fd"
	"repro/internal/mvd"
)

func main() {
	// A chain A→B→C→D plus two noisy free columns: rich in FDs and MVDs.
	r := datagen.FunctionalChain(2000, 4, 6, 0, 7)
	fmt.Printf("relation: %d rows × %d cols (functional chain A→B→C→D)\n\n", r.NumRows(), r.NumCols())

	sess, err := maimon.Open(r)
	if err != nil {
		log.Fatal(err)
	}

	fdRes := fd.NewMiner(r).Mine()
	fmt.Printf("FD/UCC baseline found %d minimal FDs, %d minimal UCCs:\n", len(fdRes.FDs), len(fdRes.UCCs))
	fmt.Print(fdRes.Summary(r.Names()))

	fmt.Println("\nevery exact FD lifts to an exact MVD (J = 0):")
	for _, f := range fdRes.FDs {
		m, ok := fd.ToMVD(f, r.NumCols())
		if !ok {
			continue
		}
		j := sess.J(m)
		fmt.Printf("  %-12s => %-28s J=%.6f\n", f.Format(r.Names()), m.Format(r.Names()), j)
		if j > 1e-9 {
			log.Fatalf("lifted MVD unexpectedly approximate: %v", j)
		}
	}

	// But MVD mining finds structure FDs cannot express: keys that are
	// not determinants still separate attribute groups. The mine below
	// reuses every entropy the J evaluations above already computed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := sess.MineMVDs(ctx, maimon.WithEpsilon(0))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	var lifted []maimon.MVD
	for _, f := range fdRes.FDs {
		if m, ok := fd.ToMVD(f, r.NumCols()); ok {
			lifted = append(lifted, m)
		}
	}
	mvd.Sort(lifted)
	extra := 0
	for _, m := range res.MVDs {
		if _, found := slices.BinarySearchFunc(lifted, m, mvd.Compare); !found {
			extra++
		}
	}
	fmt.Printf("\nMVD miner found %d full exact MVDs; %d are not FD lifts —\n", len(res.MVDs), extra)
	fmt.Println("the structure acyclic-schema discovery needs and FD mining misses.")
}
