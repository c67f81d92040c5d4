// Independence shows the Geiger–Pearl view of Maimon's output: every
// mined MVD is a saturated conditional-independence statement over the
// relation's empirical distribution. We mine a planted relation through a
// Session, print the CI statements, and exercise the semi-graphoid
// derivations (decomposition, weak union) numerically — the adapter a
// graphical-model pipeline would consume.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	maimon "repro"
	"repro/internal/bitset"
	"repro/internal/ci"
	"repro/internal/datagen"
	"repro/internal/entropy"
)

func main() {
	bags := []bitset.AttrSet{
		bitset.Of(0, 1, 2),    // ABC
		bitset.Of(2, 3, 4),    // CDE
		bitset.Of(4, 5, 6, 7), // EFGH
	}
	r, planted, err := datagen.Planted(datagen.PlantedSpec{
		Bags: bags, RootTuples: 48, ExtPerSep: 3, Domain: 9, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planted %v over %d rows\n\n", planted.Format(r.Names()), r.NumRows())

	sess, err := maimon.Open(r)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := sess.MineMVDs(ctx, maimon.WithEpsilon(0))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	stmts := maimon.CIStatements(res.MVDs)
	fmt.Printf("mined %d full MVDs = %d saturated CI statements:\n", len(res.MVDs), len(stmts))
	fmt.Print(ci.Report(stmts, r.Names()))

	// The numeric derivation checks evaluate I against an oracle; a fresh
	// one here shows the internal surface — the session above keeps its
	// own warm oracle for the mining side.
	o := entropy.New(r)
	fmt.Println("\nsemi-graphoid derivations (each must keep I at 0):")
	for _, s := range stmts {
		if s.Z.Len() < 2 {
			continue
		}
		sub, err := s.Decompose(bitset.Single(s.Z.Min()))
		if err != nil {
			continue
		}
		wu, err := s.WeakUnion(bitset.Single(s.Z.Min()))
		if err != nil {
			continue
		}
		fmt.Printf("  %-34s I=%.6f\n", "decompose: "+sub.Format(r.Names()), sub.I(o))
		fmt.Printf("  %-34s I=%.6f\n", "weak union: "+wu.Format(r.Names()), wu.I(o))
		if sub.I(o) > 1e-9 || wu.I(o) > 1e-9 {
			log.Fatal("derivation broke independence — graphoid violation")
		}
		break
	}
	fmt.Println("\nall derivations sound, as the semi-graphoid axioms require.")
}
