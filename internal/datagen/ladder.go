package datagen

import (
	"fmt"

	"repro/internal/relation"
)

// ladderSeed fixes which tuples the ladder's rungs plant.
const ladderSeed = 7

// Ladder returns the named rung of the workload ladder: planted acyclic
// joins with 1 % cell noise, cut in rows, never in columns — the column
// count fixes the search (pairs, H calls), the row count only the
// partition work.
//
//	wide  13 cols ×   ≈3.2k rows  (a chain of 4-attribute bags)
//	mid    9 cols ×  ≈27k rows    (a chain of 3-attribute bags)
//	tall   9 cols × ≈162k rows    (mid with six times the root tuples)
//
// These are the benchmark's inputs before it permutes rows and renames
// values per run seed.
func Ladder(name string) (*relation.Relation, error) {
	var spec PlantedSpec
	switch name {
	case "wide":
		spec = PlantedSpec{Bags: ChainBags(13, 4, 1), RootTuples: 120}
	case "mid":
		spec = PlantedSpec{Bags: ChainBags(9, 3, 1), Domain: 24, RootTuples: 1000}
	case "tall":
		spec = PlantedSpec{Bags: ChainBags(9, 3, 1), Domain: 24, RootTuples: 6000}
	default:
		return nil, fmt.Errorf("datagen: no ladder rung %q (want wide, mid or tall)", name)
	}
	spec.ExtPerSep, spec.NoiseCells, spec.Seed = 3, 0.01, ladderSeed
	r, _, err := Planted(spec)
	return r, err
}
