// Command bench is the repository's one benchmark. It builds maimon and
// maimond from the checkout, generates its inputs from -seed, drives the
// real binaries with tracing off for the end-to-end metrics (-trace 0),
// or replays the workload in-process under spans and reads the program's
// own counters for the per-layer metrics (-trace 1), and judges every
// output against a serial reference. See README.md beside this file.
//
// Run from the repository root:
//
//	bash bench/run.sh -workload cold_wide -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object per workload with
// exactly the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		body := map[string]func([]string) error{"prepare": prepareChild, "reference": referenceChild, "sweep": sessionChild, "calibrate": calibrateChild}[mode]
		if body == nil {
			body = func([]string) error { return fmt.Errorf("unknown child mode") }
		}
		if err := body(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s child: %v\n", mode, err)
			os.Exit(1)
		}
		return
	}
	var (
		names     = flag.String("workload", "", "comma-separated workloads to run (default: the five of BENCHMARK.json)")
		seed      = flag.Int64("seed", 7, "drives every generated input and the daemon_jobs ε order")
		secs      = flag.Float64("seconds", 10, "how long one workload measures")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics on the real binaries; 1 = per-layer metrics from the traced pass")
		out       = flag.String("out", "", "also write the results as JSON to this file")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the spans as JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end pass twice and fail if any metric's two medians differ by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []workload
	if *names == "" {
		selected = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
		selected = append(selected, w)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	e, err := newEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	// The in-process passes (reference, traced replay) get the same cores
	// as the children.
	runtime.GOMAXPROCS(e.procs)
	budget := time.Duration(*secs * float64(time.Second))

	ok := true
	switch {
	case *selfcheck:
		ok = runSelfcheck(ctx, e, selected, *seed, budget)
	default:
		ok = runAll(ctx, e, selected, *seed, budget, *trace == 1, *out, *traceOut)
	}
	e.cleanup()
	stop()
	if !ok {
		os.Exit(1)
	}
}

// report is what -out writes: where and on what the numbers were taken,
// and one result per workload.
type report struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Results    map[string]result `json:"results"`
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runOne measures one workload and shapes the outcome for the driver.
func runOne(ctx context.Context, e *env, w workload, seed int64, budget time.Duration, traceOn bool) (result, *measured, *traced) {
	var (
		m    *measured
		tr   *traced
		err  error
		vals map[string]float64
	)
	specs := endToEnd
	if traceOn {
		specs = perLayer
		if tr, m, err = runTraced(ctx, e, w, seed); err == nil {
			vals = tr.Values
		}
	} else {
		if m, _, err = runEndToEnd(ctx, e, w, seed, budget); err == nil && len(m.Ops) > 0 {
			vals = m.metrics(w)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return result{Attempted: 1, Failed: 1, Metrics: metricsFrom(specs, nil)}, m, tr
	}
	for _, err := range m.Errs {
		fmt.Fprintf(os.Stderr, "bench: %s: failed op: %v\n", w.Name, err)
	}
	res := result{Correct: m.Failed == 0 && vals != nil, Attempted: max(m.Attempted, 1), Failed: m.Failed, Metrics: metricsFrom(specs, vals)}
	return res, m, tr
}

func runAll(ctx context.Context, e *env, selected []workload, seed int64, budget time.Duration, traceOn bool, outPath, tracePath string) bool {
	rep := report{Commit: commitOf(e.root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: e.procs,
		Seed: seed, Seconds: budget.Seconds(), Traced: traceOn, Results: map[string]result{}}
	fmt.Printf("bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per workload, trace %v\n",
		rep.Commit, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, seed, budget.Seconds(), traceOn)
	ok := true
	var spans []span
	for _, w := range selected {
		res, m, tr := runOne(ctx, e, w, seed, budget, traceOn)
		rep.Results[w.Name] = res
		ok = ok && res.Correct
		printHuman(w, res, m, tr)
		if tr != nil {
			spans = append(spans, tr.Spans...)
		}
		// The machine-readable line comes last for its workload, so with
		// one workload it is the last line of standard output.
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if outPath != "" {
		ok = writeJSON(outPath, rep) && ok
	}
	if tracePath != "" {
		ok = writeJSON(tracePath, spans) && ok
	}
	return ok
}

func writeJSON(path string, v any) bool {
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
	}
	return err == nil
}

// printHuman prints every metric by name with its unit, plus the
// quartiles and rep count behind the medians.
func printHuman(w workload, res result, m *measured, tr *traced) {
	fmt.Printf("\n== %s: %s\n", w.Name, w.Why)
	if m != nil && len(m.Ops) > 0 {
		walls := make([]float64, len(m.Ops))
		for i, o := range m.Ops {
			walls[i] = o.Wall
		}
		unit := "ops"
		if w.Kind == kindDaemon {
			walls, unit = m.Latency, "result-cache-miss jobs"
		}
		q1, q2, q3 := quartiles(walls)
		fmt.Printf("  %d %s: wall q1 %.4fs  median %.4fs  q3 %.4fs  (p%.0f is the highest percentile with ten samples beyond it)\n",
			len(walls), unit, q1, q2, q3, 100*highestPercentile(len(walls)))
		if w.Kind != kindDaemon {
			fmt.Printf("  op walls in order (s): %.3f\n", walls)
		}
		fmt.Printf("  set-ups in order (s): %.3f\n", m.Setup)
		if tr == nil {
			fmt.Printf("  calibrations in order (s): %.3f\n", m.Cal)
			fmt.Printf("  as measured: wall %.4fs  cpu %.4fs; host factor %.4f (calibration median %.4fs, reference %.3fs)\n",
				q2, median(m.col(func(o opSample) float64 { return o.CPU })), hostFactor(m.Cal), median(m.Cal), calRef)
			fmt.Printf("  without a bound: wall_hi %.4fs  first_result %.4fs\n",
				m.wallHi(w), median(m.col(func(o opSample) float64 { return o.First })))
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.Metrics[n]
		if tr != nil && mv.Value == 0 {
			continue // layer idle in this workload; the JSON line still carries the 0
		}
		fmt.Printf("  %-36s %14.6g %s\n", n, mv.Value, mv.Unit)
	}
	if tr != nil {
		fmt.Print(spanSummary(tr.Spans))
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
}
