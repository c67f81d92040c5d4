// Command maimon mines approximate MVDs and acyclic schemes from a CSV
// relation, the end-to-end workflow of the paper.
//
// Usage:
//
//	maimon -input data.csv [-header] [-epsilon 0.1] [-mode schemes]
//	       [-timeout 30s] [-max-schemes 50] [-workers 0] [-cache-bytes 0]
//	       [-entropy-bytes 0] [-spill-dir ""] [-spill-bytes 0] [-fds]
//	       [-v] [-trace]
//
// Modes:
//
//	minseps   print the minimal separators per attribute pair
//	mvds      print Mε, the full ε-MVDs with minimal separator keys
//	schemes   print mined acyclic schemes ranked by storage savings,
//	          with J, savings S%, spurious-tuple rate E% and width
//	decompose mine (or take -schema), pick the best scheme by savings,
//	          and write one CSV per relation into -out
//
// With -v, live progress (phase, pairs done/total, MVDs found) streams to
// stderr as mining runs, and in schemes mode each scheme is printed the
// moment the enumerator synthesizes it, ahead of the final ranked table.
//
// With -trace, the stage-level mine trace prints to stderr after mining:
// one line per phase (wall time, entropy computes vs memo hits, PLI and
// intersection work) and one per stage (separator mining, full-MVD
// expansion, graph build, schema synthesis) with CPU time, calls, items,
// J-evaluations and candidates. Stage and entropy-level trace counts
// are deterministic across -workers settings; only the durations (and
// PLI-layer scheduling detail such as the hit/miss split) change.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/fd"
)

func main() {
	var (
		input        = flag.String("input", "", "input CSV file (required)")
		header       = flag.Bool("header", true, "first CSV record is the header")
		epsilon      = flag.Float64("epsilon", 0, "approximation threshold ε in bits")
		mode         = flag.String("mode", "schemes", "minseps | mvds | schemes | decompose")
		timeout      = flag.Duration("timeout", time.Minute, "time budget for mining and ranking (0 = unlimited)")
		maxSchemes   = flag.Int("max-schemes", maimon.DefaultMaxSchemes, "cap on schemes enumerated, the library's default unless set (0 = all)")
		withFDs      = flag.Bool("fds", false, "also mine exact FDs/UCCs (baseline)")
		schemaSpec   = flag.String("schema", "", "decompose mode: explicit schema, bags separated by ';' (e.g. \"A,B,D;A,C,D;B,D,E;A,F\")")
		outDir       = flag.String("out", "decomposed", "decompose mode: output directory")
		rank         = flag.String("rank", "savings", "schemes mode ordering: savings | j | relations | width")
		workers      = flag.Int("workers", 0, "parallel mining and ranking fan-out (0 = GOMAXPROCS, 1 = serial)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "PLI cache memory budget in bytes; cold partitions are evicted past it (0 = unlimited)")
		entropyBytes = flag.Int64("entropy-bytes", 0, "entropy-memo memory budget in bytes (0 = unlimited; see README.md, Memory)")
		spillDir     = flag.String("spill-dir", "", "disk spill tier: evicted partitions worth re-reading are demoted into segment files under this directory instead of dropped (empty = disabled)")
		spillBytes   = flag.Int64("spill-bytes", 0, "on-disk budget of the spill tier; oldest segments deleted past it (0 = unlimited)")
		verbose      = flag.Bool("v", false, "stream live progress (and schemes, as they arrive) to stderr")
		trace        = flag.Bool("trace", false, "print the stage-level mine trace (per-phase wall time, entropy/PLI work, per-stage breakdown) to stderr after mining")
	)
	flag.Parse()
	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}
	r, err := maimon.LoadCSV(*input, *header)
	if err != nil {
		fail("loading %s: %v", *input, err)
	}
	fmt.Printf("relation: %d rows × %d columns (%s)\n", r.NumRows(), r.NumCols(), *input)

	// The timeout rides on a signal-aware context, so Ctrl-C interrupts a
	// long mine and still prints the partial results gathered so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sessOpts := []maimon.Option{maimon.WithEpsilon(*epsilon), maimon.WithMaxSchemes(*maxSchemes),
		maimon.WithWorkers(*workers), maimon.WithMemoryBudget(*cacheBytes),
		maimon.WithEntropyBudget(*entropyBytes)}
	if *spillDir != "" {
		sessOpts = append(sessOpts, maimon.WithSpillDir(*spillDir), maimon.WithSpillBudget(*spillBytes))
	}
	sess, err := maimon.Open(r, sessOpts...)
	if err != nil {
		fail("%v", err)
	}
	defer sess.Close()
	// Track the MVD count through the event stream (cheap even without
	// -v); with -v the same stream is echoed to stderr live. The last
	// mining call leaves its stage trace in tr, for -trace.
	mvdCount := 0
	var tr maimon.MineTrace
	opts := []maimon.Option{maimon.WithTrace(&tr), maimon.WithProgress(func(p maimon.Progress) {
		if p.MVDs > mvdCount {
			mvdCount = p.MVDs
		}
		if *verbose {
			printProgress(p)
		}
	})}

	switch *mode {
	case "minseps":
		res, merr := sess.MineMinSeps(ctx, opts...)
		if res == nil {
			fail("%v", merr)
		}
		for _, p := range res.SortedPairs() {
			fmt.Printf("(%s, %s):", r.Name(p.A), r.Name(p.B))
			for _, s := range res.MinSeps[p] {
				fmt.Printf(" {%s}", s.Format(r.Names()))
			}
			fmt.Println()
		}
		fmt.Printf("%d minimal separators total\n", res.NumMinSeps())
		warnTimeout(merr)
	case "mvds":
		res, merr := sess.MineMVDs(ctx, opts...)
		if res == nil {
			fail("%v", merr)
		}
		for _, phi := range res.MVDs {
			fmt.Printf("  %-40s J=%.4f\n", phi.Format(r.Names()), sess.J(phi))
		}
		fmt.Printf("%d full ε-MVDs (ε=%.3f)\n", len(res.MVDs), *epsilon)
		warnTimeout(merr)
	case "schemes":
		// Consume the stream: schemes print (under -v) the moment the
		// enumerator synthesizes them; the ranked table follows once the
		// enumeration is done or interrupted.
		var schemes []*maimon.Scheme
		var mineErr error
		for s, serr := range sess.SchemeSeq(ctx, opts...) {
			if serr != nil {
				mineErr = serr
				break
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "scheme %3d: %-46s J=%.3f\n",
					len(schemes)+1, s.Schema.Format(r.Names()), s.J)
			}
			schemes = append(schemes, s)
		}
		type row struct {
			s   *core.Scheme
			met decompose.Metrics
		}
		// Every mined scheme gets a row. One the ranking did not reach —
		// it stopped with ctx, or analyzeAll reported its error — follows
		// the ranked ones, in enumeration order, with no S and E.
		var rows, unranked []row
		mets, errs := analyzeAll(ctx, sess, schemes)
		for i, s := range schemes {
			if errs[i] == nil {
				rows = append(rows, row{s, mets[i]})
			} else {
				unranked = append(unranked, row{s: s})
			}
		}
		switch *rank {
		case "savings":
			sort.Slice(rows, func(i, j int) bool {
				return rows[i].met.SavingsPct > rows[j].met.SavingsPct
			})
		case "j":
			sort.Slice(rows, func(i, j int) bool {
				return core.RankByJ.Less(rows[i].s, rows[j].s)
			})
		case "relations":
			sort.Slice(rows, func(i, j int) bool {
				return core.RankByRelations.Less(rows[i].s, rows[j].s)
			})
		case "width":
			sort.Slice(rows, func(i, j int) bool {
				return core.RankByWidth.Less(rows[i].s, rows[j].s)
			})
		default:
			fail("unknown rank %q", *rank)
		}
		// One write per buffer, not per row: the table can run to
		// hundreds of thousands of rows.
		table := bufio.NewWriter(os.Stdout)
		fmt.Fprintf(table, "%-8s %-8s %-9s %-3s %-6s  %s\n", "J", "S[%]", "E[%]", "m", "width", "schema")
		for _, rw := range rows {
			fmt.Fprintf(table, "%-8.3f %-8.1f %-9.2f %-3d %-6d  %s\n",
				rw.s.J, rw.met.SavingsPct, rw.met.SpuriousPct,
				rw.s.M(), rw.s.Schema.Width(), rw.s.Schema.Format(r.Names()))
		}
		for _, rw := range unranked {
			fmt.Fprintf(table, "%-8.3f %-8s %-9s %-3d %-6d  %s\n",
				rw.s.J, "-", "-", rw.s.M(), rw.s.Schema.Width(), rw.s.Schema.Format(r.Names()))
		}
		if err := table.Flush(); err != nil {
			fail("writing the schemes table: %v", err)
		}
		fmt.Printf("%d schemes from %d full MVDs (ε=%.3f)\n", len(schemes), mvdCount, *epsilon)
		if mineErr == nil && len(unranked) > 0 {
			mineErr = ctx.Err()
		}
		warnTimeout(mineErr)
	case "decompose":
		sch, err := pickSchema(ctx, sess, *schemaSpec, opts)
		if err != nil {
			fail("%v", err)
		}
		// Through the session: the projections and the metrics below
		// each group the bags from the partitions the mine left cached.
		// Nothing is kept between the two calls, so a bag is grouped
		// twice, an O(rows) pass each time.
		d, err := sess.Decompose(sch)
		if err != nil {
			fail("%v", err)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail("%v", err)
		}
		if err := d.WriteCSVs(*outDir); err != nil {
			fail("%v", err)
		}
		met, err := sess.Analyze(sch)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("decomposed into %d relations under %s/ (S=%.1f%%, E=%.2f%%)\n",
			sch.M(), *outDir, met.SavingsPct, met.SpuriousPct)
		fmt.Printf("schema: %s\n", sch.Format(r.Names()))
	default:
		fail("unknown mode %q", *mode)
	}

	if *verbose {
		st := sess.Stats()
		fmt.Fprintf(os.Stderr, "oracle: %d H calls (%d cached); PLI: %d entries, %d bytes live, %d evictions\n",
			st.HCalls, st.HCached, st.PLIStats.Entries, st.PLIStats.BytesLive, st.PLIStats.Drops+st.PLIStats.Demotions)
	}
	if *trace {
		fmt.Fprint(os.Stderr, tr.String())
	}

	// Mining is over: restore default signal handling so Ctrl-C now
	// terminates the process instead of feeding an already-consumed
	// context.
	interrupted := ctx.Err() != nil
	stop()

	if *withFDs {
		if interrupted {
			fmt.Fprintln(os.Stderr, "maimon: skipping FD/UCC baseline (interrupted)")
			return
		}
		fmt.Println("\nFD/UCC baseline (exact):")
		res := fd.NewMiner(r).Mine()
		fmt.Print(res.Summary(r.Names()))
	}
}

// printProgress renders one event as a stderr status line.
func printProgress(p maimon.Progress) {
	switch p.Phase {
	case "schemes":
		fmt.Fprintf(os.Stderr, "[%s] %d schemes from %d MVDs (%d candidates evaluated)\n",
			p.Phase, p.Schemes, p.MVDs, p.Candidates)
	default:
		fmt.Fprintf(os.Stderr, "[%s] pair %d/%d: %d separators, %d MVDs (%d candidates evaluated)\n",
			p.Phase, p.PairsDone, p.PairsTotal, p.Separators, p.MVDs, p.Candidates)
	}
}

// pickSchema parses the explicit -schema spec or mines schemes through
// the session and picks the one with the best storage savings. A mine
// that yields no scheme fails with its error, if it has one; a partial
// one is used with the warning -mode schemes prints.
func pickSchema(ctx context.Context, sess *maimon.Session, spec string, opts []maimon.Option) (maimon.Schema, error) {
	r := sess.Relation()
	if spec != "" {
		var bags []maimon.AttrSet
		for _, part := range strings.Split(spec, ";") {
			b, err := r.ParseAttrs(strings.TrimSpace(part))
			if err != nil {
				return maimon.Schema{}, err
			}
			bags = append(bags, b)
		}
		return maimon.NewSchema(bags)
	}
	schemes, _, err := sess.MineSchemes(ctx, opts...)
	if len(schemes) == 0 {
		if err != nil {
			return maimon.Schema{}, err
		}
		return maimon.Schema{}, fmt.Errorf("no schemes mined; raise -epsilon or pass -schema")
	}
	warnTimeout(err)
	best := schemes[0]
	bestSavings := -1e18
	mets, errs := analyzeAll(ctx, sess, schemes)
	for i, s := range schemes {
		if errs[i] == nil && mets[i].SavingsPct > bestSavings {
			best, bestSavings = s, mets[i].SavingsPct
		}
	}
	return best.Schema, nil
}

// analyzeAll ranks the mined schemes on the session's -workers until ctx
// is done; a scheme whose metrics cannot be computed for another reason is
// reported on stderr, not passed over in silence.
func analyzeAll(ctx context.Context, sess *maimon.Session, schemes []*maimon.Scheme) ([]maimon.Metrics, []error) {
	schemas := make([]maimon.Schema, len(schemes))
	for i, s := range schemes {
		schemas[i] = s.Schema
	}
	mets, errs := sess.AnalyzeAll(ctx, schemas)
	stopped := ctx.Err()
	for i, err := range errs {
		if err != nil && err != stopped {
			fmt.Fprintf(os.Stderr, "warning: no metrics for %s: %v\n", schemas[i].Format(sess.Relation().Names()), err)
		}
	}
	return mets, errs
}

func warnTimeout(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v (results are partial)\n", err)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "maimon: "+format+"\n", args...)
	os.Exit(1)
}
