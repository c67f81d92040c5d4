package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// Inputs are planted acyclic joins with 1 % cell noise, sized so that one
// op takes about a second on two cores: the driver allows ≈ 18 s per run
// (set-up included), so the 10k×13 / 373k×9 / 108k×9 relations of the
// issue are cut in rows, never in columns — the column count fixes the
// search (pairs, H calls), the row count only the partition work.
//
//	wide  13 cols ×   ≈3.2k rows  (78 pairs, ≈16 M H calls at ε=0.1)
//	tall   9 cols × ≈162k rows
//	mid    9 cols ×  ≈27k rows
func plantedSpec(name string) (datagen.PlantedSpec, bool) {
	switch name {
	case "wide":
		return datagen.PlantedSpec{Bags: datagen.ChainBags(13, 4, 1), RootTuples: 120, ExtPerSep: 3, NoiseCells: 0.01, Seed: plantSeed}, true
	case "tall":
		return datagen.PlantedSpec{Bags: datagen.ChainBags(9, 3, 1), Domain: 24, RootTuples: 6000, ExtPerSep: 3, NoiseCells: 0.01, Seed: plantSeed}, true
	case "mid":
		return datagen.PlantedSpec{Bags: datagen.ChainBags(9, 3, 1), Domain: 24, RootTuples: 1000, ExtPerSep: 3, NoiseCells: 0.01, Seed: plantSeed}, true
	}
	return datagen.PlantedSpec{}, false
}

// plantSeed fixes which tuples are planted. The run's -seed does not
// reach it: the cost of a mine is a step function of the data (one MVD
// crossing ε opens or closes a whole subtree of the search — across ten
// planting seeds wall_s of one workload spread by 13–35 %), and the driver
// needs runs on ten seeds to agree within a metric's bound. So -seed
// changes the bytes and leaves the work alone: it permutes the rows and
// renames the values of every column. Entropies, hence MVDs, schemes and
// every count, are invariant under both; the CSV, the dictionary codes
// and the order of rows inside every partition are not. To try a claim on
// different data, change plantSeed — that is a different benchmark, whose
// baseline must be measured again.
const plantSeed = 7

// generate builds the named input for the run's seed. nursery is the
// paper's fixed use-case relation (maimond -nursery preloads the same
// one) and ignores the seed; there the seed orders daemon_jobs' ε list.
func generate(name string, seed int64) (*relation.Relation, error) {
	if name == "nursery" {
		return datagen.Nursery(), nil
	}
	spec, ok := plantedSpec(name)
	if !ok {
		return nil, fmt.Errorf("unknown input %q", name)
	}
	base, _, err := datagen.Planted(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(base.NumRows())
	cols := make([][]relation.Code, base.NumCols())
	for j := range cols {
		rename := rng.Perm(base.DomainSize(j))
		src := base.Column(j)
		col := make([]relation.Code, len(order))
		for i, row := range order {
			col[i] = relation.Code(rename[src[row]])
		}
		cols[j] = col
	}
	return relation.FromCodes(base.Names(), cols)
}

// writeCSV writes r as dir/name.csv and returns the path.
func writeCSV(r *relation.Relation, dir, name string) (string, error) {
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := r.WriteCSV(w); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
