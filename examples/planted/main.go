// Planted demonstrates recovery of a known acyclic schema: we construct a
// relation as an explicit acyclic join (so the schema holds exactly),
// corrupt a fraction of cells, and show that exact mining (ε = 0) loses
// the schema while approximate mining (ε > 0) recovers a decomposition of
// the same shape — the paper's core motivation for approximation. The
// dirty relation is scored and mined through one Session, so the ε > 0
// re-mine starts from the warm oracle the ε = 0 attempt populated.
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
	noise := flag.Float64("noise", 0.01, "fraction of cells corrupted")
	flag.Parse()

	bags := []bitset.AttrSet{
		bitset.Of(0, 1, 2),    // ABC
		bitset.Of(1, 2, 3, 4), // BCDE
		bitset.Of(4, 5, 6),    // EFG
	}
	spec := datagen.PlantedSpec{Bags: bags, RootTuples: 64, ExtPerSep: 3, Domain: 8, Seed: 42}

	clean, planted, err := datagen.Planted(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.NoiseCells = *noise
	dirty, _, err := datagen.Planted(spec)
	if err != nil {
		log.Fatal(err)
	}

	cleanSess, err := maimon.Open(clean)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := maimon.Open(dirty, maimon.WithMaxSchemes(50))
	if err != nil {
		log.Fatal(err)
	}

	jClean, err := cleanSess.JOfSchema(planted)
	if err != nil {
		log.Fatal(err)
	}
	jDirty, err := sess.JOfSchema(planted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planted schema %v\n", planted.Format(clean.Names()))
	fmt.Printf("J on clean data:   %.4f bits (exact by construction)\n", jClean)
	fmt.Printf("J after %.1f%% cell noise: %.4f bits\n", *noise*100, jDirty)

	for _, eps := range []float64{0, jDirty * 1.1} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		schemes, res, err := sess.MineSchemes(ctx, maimon.WithEpsilon(eps))
		cancel()
		if err != nil && err != maimon.ErrInterrupted {
			log.Fatal(err)
		}
		best := bestByRelations(schemes)
		fmt.Printf("\nε=%.4f: %d full MVDs, %d schemes\n", eps, len(res.MVDs), len(schemes))
		if best == nil {
			fmt.Println("  no decomposition found")
			continue
		}
		fmt.Printf("  deepest decomposition: %v (m=%d, J=%.4f)\n",
			best.Schema.Format(dirty.Names()), best.M(), best.J)
		met, err := sess.Analyze(best.Schema)
		if err == nil {
			fmt.Printf("  savings S=%.1f%%, spurious E=%.2f%%\n", met.SavingsPct, met.SpuriousPct)
		}
	}
	fmt.Println("\nWith ε = 0 the noise hides the planted structure; a small ε recovers it.")
}

func bestByRelations(schemes []*maimon.Scheme) *maimon.Scheme {
	var best *maimon.Scheme
	for _, s := range schemes {
		if best == nil || s.M() > best.M() {
			best = s
		}
	}
	return best
}
