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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
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
		budget  = flag.Duration("budget", 5*time.Second, "time budget per mining invocation")
		scale   = flag.Int("scale", 0, "row cap for analog datasets (0 = 10000)")
		epsList = flag.String("epsilons", "", "comma-separated ε sweep (default 0,0.05,0.1,0.2,0.3,0.4,0.5)")
		workers = flag.Int("workers", 0, "parallel mining fan-out for the drivers (<= 1 = serial, the paper's setting)")
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

func banner(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}
