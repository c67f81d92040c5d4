// Command experiments regenerates the paper's tables and figures on the
// synthetic analog datasets (the package comment of internal/experiments
// is the experiment index). The ε-sweep drivers build
// one entropy oracle per dataset and reuse it across the whole sweep —
// the warm-session pattern of the public API — so a sweep pays the PLI
// and entropy cost once instead of once per threshold.
//
// Usage:
//
//	experiments [-budget 5s] [-scale 10000] table2
//	experiments fig10 fig12 fig13 fig14 fig15 fig18 ablation
//	experiments all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/distbench"
)

var drivers = []struct {
	name string
	run  func(experiments.Config) string
	desc string
}{
	{"table2", experiments.Table2, "Table 2: full-MVD mining at ε=0 on 20 datasets"},
	{"fig10", experiments.Fig10Nursery, "Figs. 10-11: Nursery schemes, savings vs spurious, pareto front"},
	{"fig12", experiments.Fig12SpuriousVsJ, "Fig. 12: spurious tuples vs J-measure"},
	{"fig13", experiments.Fig13Rows, "Fig. 13: row scalability of minimal-separator mining"},
	{"fig14", experiments.Fig14Cols, "Fig. 14: column scalability"},
	{"fig15", experiments.Fig15Quality, "Fig. 15: scheme quality vs ε"},
	{"fig18", experiments.Fig18FullMVDs, "Fig. 18: full MVDs per ε and generation rate"},
	{"ablation", runAblations, "Ablations: pairwise-consistency pruning; entropy engine"},
}

func runAblations(cfg experiments.Config) string {
	return experiments.AblationPairwiseConsistency(cfg) + "\n" + experiments.AblationEntropyEngine(cfg)
}

func main() {
	var (
		budget    = flag.Duration("budget", 5*time.Second, "time budget per mining invocation")
		scale     = flag.Int("scale", 0, "row cap for analog datasets (0 = 10000)")
		epsList   = flag.String("epsilons", "", "comma-separated ε sweep (default 0,0.05,0.1,0.2,0.3,0.4,0.5)")
		workers   = flag.Int("workers", 0, "parallel mining fan-out for the drivers (<= 1 = serial, the paper's setting)")
		benchJSON = flag.String("bench-json", "", "run the warm-parallel-vs-serial bench and write its rows to this JSON file")
		memJSON   = flag.String("bench-memory-json", "", "run the memory-budget sweep and write its rows to this JSON file")
		interJSON = flag.String("bench-intersect-json", "", "run the map-vs-arena intersection bench and write its rows to this JSON file")
		cacheJSON = flag.String("bench-cache-json", "", "run the eviction-policy sweep (clock vs gdsf under shrinking PLI budgets) and write its rows to this JSON file")
		spillJSON = flag.String("bench-spill-json", "", "run the spill-tier sweep (warm re-mines under a ⅛ budget, spill on vs off) and write its rows to this JSON file")
		distJSON  = flag.String("bench-dist-json", "", "run the distributed-mining bench (in-process worker fleet) and write its rows to this JSON file")
	)
	flag.Parse()
	cfg := experiments.Config{
		Out:     os.Stdout,
		Budget:  *budget,
		Scale:   *scale,
		Workers: *workers,
	}
	if *epsList != "" {
		for _, part := range strings.Split(*epsList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad epsilon %q: %v\n", part, err)
				os.Exit(2)
			}
			cfg.Epsilons = append(cfg.Epsilons, v)
		}
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(cfg, *benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *memJSON != "" {
		if err := writeMemoryJSON(cfg, *memJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *interJSON != "" {
		if err := writeIntersectJSON(cfg, *interJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cacheJSON != "" {
		if err := writeCacheJSON(cfg, *cacheJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *spillJSON != "" {
		if err := writeSpillJSON(cfg, *spillJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *distJSON != "" {
		if err := writeDistJSON(cfg, *distJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Println("available experiments:")
		for _, d := range drivers {
			fmt.Printf("  %-9s %s\n", d.name, d.desc)
		}
		fmt.Println("  all       run everything")
		return
	}
	for _, arg := range args {
		if arg == "all" {
			for _, d := range drivers {
				banner(d.desc)
				d.run(cfg)
			}
			continue
		}
		found := false
		for _, d := range drivers {
			if d.name == arg {
				banner(d.desc)
				d.run(cfg)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", arg)
			os.Exit(2)
		}
	}
}

// writeRowsJSON runs one machine-readable benchmark and writes its rows
// as indented JSON — the shared tail of every -bench-*-json flag, so the
// output contract (indentation, trailing newline, permissions, the
// "wrote N rows" confirmation) lives in one place.
func writeRowsJSON[Row any](path string, run func(experiments.Config) ([]Row, string, error), cfg experiments.Config) error {
	rows, _, err := run(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bench rows to %s\n", len(rows), path)
	return nil
}

// writeBenchJSON runs the warm-parallel-vs-serial benchmark and records
// its machine-readable rows — {dataset, workers, wall_ms, h_calls,
// speedup} — so the perf trajectory of the parallel pipeline is tracked
// across commits (BENCH_parallel.json at the repo root).
func writeBenchJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, experiments.ParallelBench, cfg)
}

// writeMemoryJSON runs the memory-budget sweep — warm re-mines of the
// planted and nursery generators under shrinking PLI budgets — and
// records its machine-readable rows, {dataset, budget_bytes, wall_ms,
// evictions, h_calls, bytes_live, gomaxprocs, numcpu}, tracking what
// eviction pressure costs across commits (BENCH_memory.json at the repo
// root).
func writeMemoryJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, experiments.MemoryBench, cfg)
}

// writeIntersectJSON runs the intersection-engine benchmark — the
// historical hash-map grouping against the arena's dense count-then-fill
// path, on the planted and nursery generators — and records its
// machine-readable rows, {dataset, engine, wall_ms, allocs, bytes_alloc,
// gomaxprocs, numcpu}, so the allocation profile of the hot path is
// tracked across commits (BENCH_intersect.json at the repo root).
func writeIntersectJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, experiments.IntersectBench, cfg)
}

// writeCacheJSON runs the eviction-policy sweep — warm ε-sweeps of the
// planted and nursery generators under {clock, gdsf} × {unlimited, ½, ⅛}
// PLI budgets — and records its machine-readable rows, {dataset, policy,
// budget_bytes, wall_ms, evictions, recompute_bytes, h_calls,
// gomaxprocs, numcpu}, so what cost-aware eviction buys under memory
// pressure is tracked across commits (BENCH_cache.json at the repo
// root).
func writeCacheJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, experiments.CacheBench, cfg)
}

// writeSpillJSON runs the spill-tier sweep — warm ε-sweeps of the
// planted and nursery generators under a ⅛ PLI budget with the disk
// spill tier off (evictions drop, misses recompute) and on (expensive
// evictions demote, misses promote) — and records its machine-readable
// rows, {dataset, policy, budget_bytes, spill_on, wall_ms,
// recompute_bytes, evictions, demotions, spill_hits, spill_bytes,
// spill_read_ms, gomaxprocs, numcpu}, so what the tier saves the rebuild
// cascade is tracked across commits (BENCH_spill.json at the repo root).
// The run fails unless spill-on recomputes strictly fewer bytes than
// spill-off under the same budget.
func writeSpillJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, experiments.SpillBench, cfg)
}

// writeDistJSON runs the distributed-mining benchmark — cold in-process
// maimond worker fleets mined through the pair-sharding coordinator at
// fleet sizes 1..3, each cell with the entropy-memo exchange on and off
// — and records its machine-readable rows, {dataset, workers,
// memo_exchange, shards, wall_ms, local_ms, speedup, dispatches,
// retries, hedges, bytes_merged, h_calls, h_computed, memo_seeded,
// memo_merged, dup_avoided, mvds, gomaxprocs, numcpu}, so both the
// coordinator's overhead against a warm local mine and the duplicate
// entropy computes the exchange eliminates are tracked across commits
// (BENCH_dist.json at the repo root). The run fails unless the exchange
// strictly reduces fresh H computes at the largest fleet.
func writeDistJSON(cfg experiments.Config, path string) error {
	return writeRowsJSON(path, distbench.Run, cfg)
}

func banner(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}
