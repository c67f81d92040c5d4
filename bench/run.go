package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/wire"
)

const (
	setupReps = 7  // set-ups per run; setup_s is their median
	minOps    = 3  // an op count below this gives no median worth the name
	sessions  = 3  // warm_sweep: session children per run, one after another
	roundJobs = 50 // daemon_jobs: distinct ε per round (then the same 50 again)
	clients   = 2  // daemon_jobs: closed-loop clients, one per core
	epsGrid   = 2000
)

// prepared is a workload's input on disk plus the references that judge
// its outputs.
type prepared struct {
	e    *env
	w    workload
	csv  string // "" for nursery: maimond preloads it, children regenerate it
	refs map[float64]outcome
}

// Generation and reference mining run in children of the harness, never
// in the harness itself: Linux carries a parent's peak RSS into a child
// across vfork+exec (ru_maxrss starts at the parent's high-water mark), so
// a harness that once held a 200 MB reference session would report 200 MB
// for every 50 MB op it spawns afterwards.

// prepare is one set-up: build the binaries, generate the workload's
// input from the seed and write it as CSV.
func prepare(ctx context.Context, e *env, w workload, seed int64) (*prepared, error) {
	if err := e.buildBinaries(ctx); err != nil {
		return nil, err
	}
	p := &prepared{e: e, w: w, refs: map[float64]outcome{}}
	if w.Input == "nursery" {
		return p, nil
	}
	dir, err := e.tempDir("input-")
	if err != nil {
		return nil, err
	}
	if _, err := e.child(ctx, "prepare", w.Input, strconv.FormatInt(seed, 10), dir); err != nil {
		return nil, err
	}
	p.csv = filepath.Join(dir, w.Input+".csv")
	return p, nil
}

// prepareChild is the body of the "prepare" child.
func prepareChild(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("want <input> <seed> <dir>, got %q", args)
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	rel, err := generate(args[0], seed)
	if err != nil {
		return err
	}
	_, err = writeCSV(rel, args[2], args[0])
	return err
}

// loadInput reads a workload's relation the way the program under test
// gets it: parsed from the CSV, or the built-in nursery.
func loadInput(w workload, csv string) (*relation.Relation, error) {
	if w.Input == "nursery" {
		return datagen.Nursery(), nil
	}
	return relation.ReadCSVFile(csv, true)
}

// reference mines the references for the given ε that are not known yet,
// all in one child on one serial session.
func (p *prepared) reference(ctx context.Context, eps ...float64) error {
	var missing []string
	var order []float64
	for _, x := range eps {
		if _, ok := p.refs[x]; !ok {
			p.refs[x] = outcome{}
			order = append(order, x)
			missing = append(missing, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	out, err := p.e.child(ctx, "reference", p.w.Name, p.csv, strings.Join(missing, ","))
	if err != nil {
		return err
	}
	var outs []outcome
	if err := json.Unmarshal(out, &outs); err != nil || len(outs) != len(order) {
		return fmt.Errorf("reference child: %d outcomes for %d ε: %v", len(outs), len(order), err)
	}
	for i, x := range order {
		p.refs[x] = outs[i]
	}
	return nil
}

// referenceChild is the body of the "reference" child: it prints one
// outcome per ε, each checked against the paper's guarantees.
func referenceChild(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("want <workload> <csv> <eps,…>, got %q", args)
	}
	w, ok := findWorkload(args[0])
	if !ok {
		return fmt.Errorf("unknown workload %q", args[0])
	}
	rel, err := loadInput(w, args[1])
	if err != nil {
		return err
	}
	sess, err := maimon.Open(rel, maimon.WithWorkers(1))
	if err != nil {
		return err
	}
	var outs []outcome
	for _, text := range strings.Split(args[2], ",") {
		eps, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return err
		}
		o, err := reference(context.Background(), sess, w.Mode, eps, w.MaxSchemes)
		if err != nil {
			return err
		}
		outs = append(outs, o)
	}
	return json.NewEncoder(os.Stdout).Encode(outs)
}

// judge compares one mined outcome with the reference for its ε.
func (p *prepared) judge(ctx context.Context, eps float64, got outcome) error {
	if err := p.reference(ctx, eps); err != nil {
		return err
	}
	return checkAgainst(p.refs[eps], got)
}

// opSample is one timed op, in seconds and MB.
type opSample struct {
	Wall, CPU, First, RSSMB float64
}

// measured is everything the end-to-end pass collected for one workload.
type measured struct {
	Setup     []float64  // seconds per set-up
	Cal       []float64  // seconds per calibration (calib.go), one before every op
	Ops       []opSample // CLI/session/fleet: one per op; daemon_jobs: one per round
	Latency   []float64  // daemon_jobs: seconds per result-cache-miss job
	Attempted int
	Failed    int
	Errs      []error
}

func (m *measured) fail(err error) {
	m.Failed++
	if len(m.Errs) < 5 {
		m.Errs = append(m.Errs, err)
	}
}

// col extracts one field of every op.
func (m *measured) col(f func(opSample) float64) []float64 {
	out := make([]float64, len(m.Ops))
	for i, o := range m.Ops {
		out[i] = f(o)
	}
	return out
}

// walls is what wall_s is the median of. On daemon_jobs the op a user
// waits for is a job, so it is the latency of the result-cache misses,
// while CPU, RSS and time to first result are per daemon lifetime (round),
// CPU divided by the round's jobs.
func (m *measured) walls(w workload) []float64 {
	if w.Kind == kindDaemon {
		return m.Latency
	}
	return m.col(func(o opSample) float64 { return o.Wall })
}

// metrics reduces the samples to the end-to-end metrics; the two times
// are host-normalised (calib.go).
func (m *measured) metrics(w workload) map[string]float64 {
	f := hostFactor(m.Cal)
	return map[string]float64{
		"setup_s":     median(m.Setup),
		"wall_s":      f * median(m.walls(w)),
		"cpu_s":       f * median(m.col(func(o opSample) float64 { return o.CPU })),
		"peak_rss_mb": median(m.col(func(o opSample) float64 { return o.RSSMB })),
	}
}

// wallHi is the tail of the op walls that the sample can carry: the upper
// quartile, or on daemon_jobs (≥ 100 misses a run) the p90.
func (m *measured) wallHi(w workload) float64 {
	if w.Kind == kindDaemon {
		return quantile(m.Latency, 0.9)
	}
	return quantile(m.walls(w), 0.75)
}

// calibrated runs one calibration before an op and records it.
func (m *measured) calibrated(ctx context.Context, e *env) error {
	c, err := e.calibrate(ctx)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	m.Cal = append(m.Cal, c)
	return nil
}

// runEndToEnd is the untraced pass: set up setupReps times, then run ops
// on the real binaries until `budget` has elapsed (at least minOps), then
// judge every output against its reference.
func runEndToEnd(ctx context.Context, e *env, w workload, seed int64, budget time.Duration) (*measured, *prepared, error) {
	m := &measured{}
	var p *prepared
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if p, err = prepare(ctx, e, w, seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		m.Setup = append(m.Setup, time.Since(start).Seconds())
	}
	var err error
	switch w.Kind {
	case kindCLI:
		err = measureCLI(ctx, e, w, p, budget, m)
	case kindSession:
		err = measureSession(ctx, e, w, p, budget, m)
	case kindDaemon:
		err = measureDaemon(ctx, e, w, p, seed, budget, m)
	case kindFleet:
		err = measureFleet(ctx, e, w, p, budget, m)
	}
	return m, p, err
}

// keepGoing is the op loop's condition: fill the time budget, never stop
// below minOps, and give up early only when ctx ends.
func keepGoing(ctx context.Context, start time.Time, budget time.Duration, done int) bool {
	return ctx.Err() == nil && (done < minOps || time.Since(start) < budget)
}

// ---- CLI workloads ----

// cliArgs is the `maimon` command line of a workload; flags stay at the
// product's defaults unless the workload names them.
func cliArgs(w workload, csv, spillDir string) []string {
	args := []string{"-input", csv, "-epsilon", strconv.FormatFloat(w.Eps[0], 'g', -1, 64), "-mode", w.Mode}
	if w.Mode == wire.ModeSchemes {
		args = append(args, "-v") // streams `scheme ` lines: time to first scheme
	}
	if w.MaxSchemes != defaultMaxSchemes {
		args = append(args, "-max-schemes", strconv.Itoa(w.MaxSchemes))
	}
	if w.CacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(w.CacheBytes, 10))
	}
	if w.EntropyBytes > 0 {
		args = append(args, "-entropy-bytes", strconv.FormatInt(w.EntropyBytes, 10))
	}
	if spillDir != "" {
		args = append(args, "-spill-dir", spillDir)
	}
	return args
}

// isMVDLine recognises a mined MVD on `maimon -mode mvds` stdout.
func isMVDLine(line string) bool { return strings.Contains(line, " ->> ") }

// cliOp runs the workload's command once and judges its stdout.
func cliOp(ctx context.Context, e *env, w workload, p *prepared) (opSample, cliRun, error) {
	spillDir := ""
	if w.Spill {
		var err error
		if spillDir, err = e.tempDir("spill-"); err != nil {
			return opSample{}, cliRun{}, err
		}
		defer os.RemoveAll(spillDir)
	}
	var onStdout func(string) bool
	if w.Mode == wire.ModeMVDs {
		onStdout = isMVDLine
	}
	run, err := runCLI(ctx, e, e.bin("maimon"), cliArgs(w, p.csv, spillDir), onStdout)
	s := opSample{Wall: run.Wall.Seconds(), CPU: run.CPU.Seconds(), First: run.FirstResult.Seconds(), RSSMB: run.RSSMB}
	if err != nil {
		return s, run, err
	}
	got, err := parseCLIOutput(w.Mode, run.Stdout)
	if err != nil {
		return s, run, err
	}
	if err := p.judge(ctx, w.Eps[0], got); err != nil {
		return s, run, err
	}
	if run.FirstResult == 0 {
		return s, run, errors.New("no result line seen before exit")
	}
	return s, run, nil
}

func measureCLI(ctx context.Context, e *env, w workload, p *prepared, budget time.Duration, m *measured) error {
	// The reference mine is heavy; do it before the clock starts so it
	// never runs between two timed ops.
	if err := p.reference(ctx, w.Eps...); err != nil {
		return err
	}
	for start := time.Now(); keepGoing(ctx, start, budget, m.Attempted); {
		if err := m.calibrated(ctx, e); err != nil {
			return err
		}
		m.Attempted++
		s, _, err := cliOp(ctx, e, w, p)
		if err != nil {
			m.fail(err)
			continue
		}
		m.Ops = append(m.Ops, s)
	}
	return nil
}

// ---- warm_sweep: a child process with a resident Session ----

// sweepOp is one line of the session child's output: one sweep over the
// workload's ε list on the warm session.
type sweepOp struct {
	Wall    float64  `json:"wall_s"`
	CPU     float64  `json:"cpu_s"`
	First   float64  `json:"first_s"` // sweep start → first mine returned
	Digests []string `json:"digests"` // one per ε, MVD strings included
}

// sessionChild is the body of the warm_sweep child: open the relation,
// mine once untimed so cache and memo are full, then sweep until the
// process has lived for the given seconds (at least minOps times),
// printing one JSON line per sweep.
func sessionChild(args []string) error {
	born := time.Now()
	if len(args) != 3 {
		return fmt.Errorf("want <workload> <csv> <seconds>, got %q", args)
	}
	w, ok := findWorkload(args[0])
	if !ok {
		return fmt.Errorf("unknown workload %q", args[0])
	}
	life, err := time.ParseDuration(args[2] + "s")
	if err != nil {
		return err
	}
	rel, err := maimon.LoadCSV(args[1], true)
	if err != nil {
		return err
	}
	sess, err := maimon.Open(rel, maimon.WithMaxSchemes(w.MaxSchemes))
	if err != nil {
		return err
	}
	defer sess.Close()
	ctx := context.Background()
	// sweep mines every ε in turn; only the mines are on the clock,
	// rendering and hashing what they returned is not.
	sweep := func() (sweepOp, error) {
		var op sweepOp
		cpu0 := selfCPU()
		t0 := time.Now()
		var results []mined
		for i, eps := range w.Eps {
			schemes, res, err := sess.MineSchemes(ctx, maimon.WithEpsilon(eps))
			if err != nil {
				return op, err
			}
			if i == 0 {
				op.First = time.Since(t0).Seconds()
			}
			results = append(results, mined{eps: eps, mvds: res.MVDs, schemes: schemes})
		}
		op.Wall = time.Since(t0).Seconds()
		op.CPU = (selfCPU() - cpu0).Seconds()
		for _, r := range results {
			op.Digests = append(op.Digests, outcomeOf(rel.Names(), w.Mode, r.mvds, r.schemes).digest(true))
		}
		return op, nil
	}
	// One untimed sweep fills cache and memo with every entropy the timed
	// sweeps will read.
	if _, err := sweep(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for done := 0; keepGoing(ctx, born, life, done); done++ {
		op, err := sweep()
		if err != nil {
			return err
		}
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureSession runs `sessions` session children one after another, each
// living for its share of the budget: load, warm up, sweep. Several
// short-lived sessions, not one long one: where a process's pages land is
// part of how fast it runs on this box (two identical processes side by
// side differ by several percent), and that draw should be averaged
// inside a run, not between runs.
func measureSession(ctx context.Context, e *env, w workload, p *prepared, budget time.Duration, m *measured) error {
	if err := p.reference(ctx, w.Eps...); err != nil {
		return err
	}
	var want []string
	for _, eps := range w.Eps {
		want = append(want, p.refs[eps].digest(true))
	}
	life := strconv.FormatFloat(budget.Seconds()/sessions, 'f', 3, 64)
	for i := 0; i < sessions && ctx.Err() == nil; i++ {
		if err := m.calibrated(ctx, e); err != nil {
			return err
		}
		out, st, err := e.childStats(ctx, "sweep", w.Name, p.csv, life)
		if err != nil {
			m.Attempted++
			m.fail(err)
			continue
		}
		// A child is several ops long: calibrate on both sides of it.
		if err := m.calibrated(ctx, e); err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			var op sweepOp
			m.Attempted++
			if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
				m.fail(fmt.Errorf("session child output: %w", err))
				continue
			}
			if strings.Join(op.Digests, ",") != strings.Join(want, ",") {
				m.fail(fmt.Errorf("sweep digests %v differ from reference %v", op.Digests, want))
				continue
			}
			// Peak RSS belongs to the process, not to one sweep.
			m.Ops = append(m.Ops, opSample{Wall: op.Wall, CPU: op.CPU, First: op.First, RSSMB: st.RSSMB})
		}
	}
	return nil
}

// ---- daemon_jobs ----

// epsilons is the list of roundJobs distinct ε in [0, 0.1) that every
// round of daemon_jobs submits, off a grid of epsGrid steps. Which ε is
// fixed (mining cost differs tenfold between thresholds, so a seeded draw
// would move the median with the seed); the seed sets their order.
func epsilons(seed int64) []float64 {
	out := make([]float64, roundJobs)
	for i, k := range rand.New(rand.NewSource(plantSeed)).Perm(epsGrid)[:roundJobs] {
		out[i] = 0.1 * float64(k) / epsGrid
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// firstEps is the job a round sends alone, on the cold daemon, before the
// clients start: time to first result. It lies between two grid points,
// so it never collides with the list.
const firstEps = 0.1 * (epsGrid/2 + 0.5) / epsGrid

// closedLoop runs jobs for every ε in eps from `clients` goroutines, each
// submitting its next job only when its previous one has been fetched.
func closedLoop(ctx context.Context, c *client, w workload, eps []float64) ([]jobRun, []error) {
	var (
		mu   sync.Mutex
		next int
		runs []jobRun
		errs []error
		wg   sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(eps) {
					mu.Unlock()
					return
				}
				e := eps[next]
				next++
				mu.Unlock()
				run, err := c.runJob(ctx, wire.JobRequest{Dataset: w.Input, Epsilon: e, Mode: w.Mode})
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					runs = append(runs, run)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, errs
}

// daemonRound is one daemon lifetime: start maimond with nursery
// preloaded, send one job alone (time to first result), then roundJobs
// distinct ε from the closed-loop clients (all result-cache misses), then
// the same ε reshuffled (all hits), shut down. observe, when set, runs
// just before shutdown.
type daemonRound struct {
	FirstJob     jobRun
	Misses, Hits []jobRun
	Errs         []error
	First        time.Duration // spawn → the first job's result fetched
	Proc         procStats
}

// jobs lists every job of the round that completed.
func (r daemonRound) jobs() []jobRun {
	return append(append([]jobRun{r.FirstJob}, r.Misses...), r.Hits...)
}

func runDaemonRound(ctx context.Context, e *env, w workload, eps []float64, rng *rand.Rand, observe func(*client)) (daemonRound, error) {
	var r daemonRound
	d, err := startDaemon(ctx, e, "-nursery")
	if err != nil {
		return r, err
	}
	defer d.stop()
	c := newClient(d.url)
	first, err := c.runJob(ctx, wire.JobRequest{Dataset: w.Input, Epsilon: firstEps, Mode: w.Mode})
	if err != nil {
		return r, err
	}
	r.FirstJob, r.First = first, first.Done.Sub(d.start)
	var errs []error
	r.Misses, errs = closedLoop(ctx, c, w, eps)
	r.Errs = append(r.Errs, errs...)
	again := append([]float64(nil), eps...)
	rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
	r.Hits, errs = closedLoop(ctx, c, w, again)
	r.Errs = append(r.Errs, errs...)
	if observe != nil {
		observe(c)
	}
	r.Proc = d.stop()
	return r, nil
}

func measureDaemon(ctx context.Context, e *env, w workload, p *prepared, seed int64, budget time.Duration, m *measured) error {
	eps := epsilons(seed)
	rng := rand.New(rand.NewSource(seed))
	var jobs []jobRun
	round := 0
	for start := time.Now(); keepGoing(ctx, start, budget, round); round++ {
		if err := m.calibrated(ctx, e); err != nil {
			return err
		}
		r, err := runDaemonRound(ctx, e, w, eps, rng, nil)
		if err != nil {
			return err
		}
		m.Attempted += 1 + 2*roundJobs
		for _, err := range r.Errs {
			m.fail(err)
		}
		for _, run := range r.Misses {
			m.Latency = append(m.Latency, run.Latency.Seconds())
		}
		jobs = append(jobs, r.jobs()...)
		m.Ops = append(m.Ops, opSample{Wall: r.Proc.Wall.Seconds(), CPU: ratio(r.Proc.CPU.Seconds(), float64(len(r.jobs()))), First: r.First.Seconds(), RSSMB: r.Proc.RSSMB})
	}
	// Judge after the clock has stopped: one serial reference mine per
	// distinct ε, on a session that warms as it goes.
	bad, err := judgeJobs(ctx, p, jobs)
	for _, b := range bad {
		m.fail(b)
	}
	return err
}

// ---- fleet_2w ----

// fleetRun is one fleet lifetime: two workers and a coordinator started,
// the input registered on all three, one job per ε of the workload (the
// first on a cold fleet, the rest warm), everything shut down.
type fleetRun struct {
	Jobs     []jobRun
	Register time.Duration
	First    time.Duration // spawn of the first process → first job's result
	Wall     time.Duration // … → last process exited
	CPU      time.Duration // summed over the three processes
	RSSMB    float64       // summed over the three processes
}

func runFleet(ctx context.Context, e *env, w workload, csv string, observe func(coord *client, workers []*client)) (fleetRun, error) {
	var r fleetRun
	start := time.Now()
	var ds []*daemon
	defer func() {
		for _, d := range ds {
			d.stop()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(ctx, e, "-mine-workers", "1")
		if err != nil {
			return r, err
		}
		ds = append(ds, d)
		urls = append(urls, d.url)
	}
	coord, err := startDaemon(ctx, e, "-coordinator", strings.Join(urls, ","))
	if err != nil {
		return r, err
	}
	ds = append(ds, coord)
	t0 := time.Now()
	for _, d := range ds {
		if err := newClient(d.url).register(ctx, w.Input, csv); err != nil {
			return r, err
		}
	}
	r.Register = time.Since(t0)
	cc := newClient(coord.url)
	for i, eps := range w.Eps {
		run, err := cc.runJob(ctx, wire.JobRequest{Dataset: w.Input, Epsilon: eps, Mode: w.Mode})
		if err != nil {
			return r, err
		}
		if i == 0 {
			r.First = time.Since(start)
		}
		r.Jobs = append(r.Jobs, run)
	}
	if observe != nil {
		observe(cc, []*client{newClient(urls[0]), newClient(urls[1])})
	}
	for _, d := range ds {
		st := d.stop()
		r.CPU += st.CPU
		r.RSSMB += st.RSSMB
	}
	r.Wall = time.Since(start)
	return r, nil
}

// judgeJobs compares every job's result with the reference for its ε
// (mined in one child for all of them) and returns one error per job
// whose output differs.
func judgeJobs(ctx context.Context, p *prepared, jobs []jobRun) (bad []error, err error) {
	eps := make([]float64, len(jobs))
	for i, run := range jobs {
		eps[i] = run.Eps
	}
	if err := p.reference(ctx, eps...); err != nil {
		return nil, err
	}
	for _, run := range jobs {
		if err := checkAgainst(p.refs[run.Eps], outcomeOfResult(&run.Result)); err != nil {
			bad = append(bad, fmt.Errorf("job %s (ε=%g): %w", run.Status.ID, run.Eps, err))
		}
	}
	return bad, nil
}

func measureFleet(ctx context.Context, e *env, w workload, p *prepared, budget time.Duration, m *measured) error {
	if err := p.reference(ctx, w.Eps...); err != nil {
		return err
	}
	for start := time.Now(); keepGoing(ctx, start, budget, m.Attempted); {
		if err := m.calibrated(ctx, e); err != nil {
			return err
		}
		m.Attempted++
		r, err := runFleet(ctx, e, w, p.csv, nil)
		if err != nil {
			m.fail(err)
			continue
		}
		bad, err := judgeJobs(ctx, p, r.Jobs)
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			m.fail(bad[0])
			continue
		}
		m.Ops = append(m.Ops, opSample{Wall: r.Wall.Seconds(), CPU: r.CPU.Seconds(), First: r.First.Seconds(), RSSMB: r.RSSMB})
	}
	return nil
}
