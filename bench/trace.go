package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	maimon "repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/obs"
	"repro/internal/pli"
	"repro/internal/relation"
	"repro/internal/spill"
	"repro/internal/wire"
)

// The traced pass attributes a workload to the layers, outside in: the
// harness puts a span around every call it makes into a layer's public
// surface and reads the counters the program already exports. Nothing in
// the program is instrumented for it. It calls only surfaces meant to
// last — Session, Oracle.H, Cache.Get, Arena.Intersect*, SingleAttribute,
// Store.Put/Get, Analyze, the /v1 routes — so a later simplification of
// the knobs does not break the benchmark.

// span is one timed call: name, start and end relative to the tracer's
// origin, and the span that caused it (0 = a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Counters is Session.Stats at the span's end (where a session
	// exists), so ratios are measured where the work happens.
	Counters *counters `json:"counters,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// counters is the slice of Session.Stats kept per span.
type counters struct {
	HCalls       int   `json:"h_calls"`
	HCached      int   `json:"h_cached"`
	PLIHits      int   `json:"pli_hits"`
	PLIMisses    int   `json:"pli_misses"`
	Intersects   int   `json:"intersects"`
	BytesTouched int64 `json:"bytes_touched"`
}

func countersOf(st maimon.Stats) *counters {
	return &counters{HCalls: st.HCalls, HCached: st.HCached, PLIHits: st.PLIStats.Hits, PLIMisses: st.PLIStats.Misses,
		Intersects: st.PLIStats.Intersects, BytesTouched: st.PLIStats.BytesTouched}
}

// tracer keeps spans in memory; -trace-out writes them when the run ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // stack of open span ids
	sess     *maimon.Session
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, origin: time.Now()} }

// do runs fn inside a span named name, child of the innermost open span.
func (t *tracer) do(name string, fn func()) span {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNS: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.origin).Nanoseconds()
	if t.sess != nil {
		s.Counters = countersOf(t.sess.Stats())
	}
	return *s
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanSummary totals spans by name: count, total and self time.
func spanSummary(spans []span) string {
	type row struct {
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	rows := map[string]*row{}
	var names []string
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.n++
		r.total += s.dur()
		r.self += self[s.ID]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %6s %12s %12s\n", "span", "n", "total", "self")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(&b, "  %-28s %6d %12s %12s\n", n, r.n, r.total.Round(time.Microsecond), r.self.Round(time.Microsecond))
	}
	return b.String()
}

// traced is the result of the traced pass for one workload.
type traced struct {
	Values map[string]float64
	Spans  []span
}

// sessionOptions are the Open options a workload's flags translate to.
func sessionOptions(w workload, spillDir string) []maimon.Option {
	opts := []maimon.Option{maimon.WithMaxSchemes(w.MaxSchemes)}
	if w.CacheBytes > 0 {
		opts = append(opts, maimon.WithMemoryBudget(w.CacheBytes))
	}
	if w.EntropyBytes > 0 {
		opts = append(opts, maimon.WithEntropyBudget(w.EntropyBytes))
	}
	if spillDir != "" {
		opts = append(opts, maimon.WithSpillDir(spillDir))
	}
	return opts
}

// mined is one ε's output from the plain mine, kept as objects so the
// span replay can feed SchemesFromMVDs and Analyze.
type mined struct {
	eps     float64
	mvds    []maimon.MVD
	schemes []*maimon.Scheme
	trace   maimon.MineTrace
	wall    time.Duration
}

// mineOnce is what one op does to a session: one mine per ε.
func mineOnce(ctx context.Context, sess *maimon.Session, w workload, eps []float64) ([]mined, error) {
	var out []mined
	for _, e := range eps {
		m := mined{eps: e}
		var res *maimon.MVDResult
		var err error
		start := time.Now()
		if w.Mode == wire.ModeMVDs {
			res, err = sess.MineMVDs(ctx, maimon.WithEpsilon(e), maimon.WithTrace(&m.trace))
		} else {
			m.schemes, res, err = sess.MineSchemes(ctx, maimon.WithEpsilon(e), maimon.WithTrace(&m.trace))
		}
		if err != nil {
			return nil, fmt.Errorf("traced mine ε=%g: %w", e, err)
		}
		m.wall = time.Since(start)
		m.mvds = res.MVDs
		out = append(out, m)
	}
	return out, nil
}

// runTraced is the traced pass of one workload.
func runTraced(ctx context.Context, e *env, w workload, seed int64) (*traced, *measured, error) {
	m := &measured{}
	p, err := prepare(ctx, e, w, seed)
	if err != nil {
		return nil, nil, err
	}
	rel, err := loadInput(w, p.csv)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(w.Name)
	v := map[string]float64{}

	eps := w.Eps
	if w.Kind == kindDaemon {
		eps = epsilons(seed)
	}
	plain, plainWall, stageCPU, err := plainMine(ctx, e, w, rel, eps, v)
	if err != nil {
		return nil, nil, err
	}
	if err := spanReplay(ctx, e, w, rel, p.csv, plain, tr, v); err != nil {
		return nil, nil, err
	}
	// Probe with the ε that mined the most MVDs: the longest set list.
	richest := plain[0]
	for _, m := range plain {
		if len(m.mvds) > len(richest.mvds) {
			richest = m
		}
	}
	probeLayers(e, rel, richest.mvds, stageCPU, v)

	// What tracing costs: the same op with and without the spans.
	var untraced, tracedWall float64
	switch w.Kind {
	case kindCLI:
		for i := 0; i < 2; i++ {
			m.Attempted++
			s, _, err := cliOp(ctx, e, w, p)
			if err != nil {
				m.fail(err)
				continue
			}
			m.Ops = append(m.Ops, s)
		}
		if len(m.Ops) > 0 {
			v["op.wall_hi_s"] = m.wallHi(w)
			v["op.first_result_s"] = median(m.col(func(o opSample) float64 { return o.First }))
			untraced, tracedWall = median(m.walls(w)), rootDur(tr.spans, w.Name).Seconds()
		}
	case kindSession:
		v["op.wall_hi_s"], v["op.first_result_s"] = plainWall, plain[0].wall.Seconds()
		untraced, tracedWall = plainWall, rootDur(tr.spans, w.Name).Seconds()
	case kindDaemon:
		untraced, tracedWall, err = tracedDaemon(ctx, e, w, p, seed, m, v)
	case kindFleet:
		untraced, tracedWall, err = tracedFleet(ctx, e, w, p, plain[0], m, v)
	}
	if err != nil {
		return nil, nil, err
	}
	if untraced > 0 {
		v["trace.overhead_pct"] = 100 * (tracedWall - untraced) / untraced
	}
	return &traced{Values: v, Spans: tr.spans}, m, nil
}

func rootDur(spans []span, name string) time.Duration {
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			return s.dur()
		}
	}
	return 0
}

// plainMine runs the op once on a fresh session with no spans, at default
// workers with a MineTrace threaded through, and reads the layers'
// own counters: core.* from the trace, entropy.* / pli.* / spill.* from
// Session.Stats, runtime.* from the Go heap. On warm_sweep the session is
// warmed first and the counters are deltas over one warm sweep.
func plainMine(ctx context.Context, e *env, w workload, rel *relation.Relation, eps []float64, v map[string]float64) (plain []mined, wall, stageCPU float64, err error) {
	spillDir := ""
	if w.Spill {
		if spillDir, err = e.tempDir("spill-"); err != nil {
			return nil, 0, 0, err
		}
		defer os.RemoveAll(spillDir)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sess, err := maimon.Open(rel, sessionOptions(w, spillDir)...)
	if err != nil {
		return nil, 0, 0, err
	}
	defer sess.Close()
	if w.Kind == kindSession {
		if _, err := mineOnce(ctx, sess, w, eps); err != nil {
			return nil, 0, 0, err
		}
	}
	st0 := sess.Stats()
	start := time.Now()
	plain, err = mineOnce(ctx, sess, w, eps)
	if err != nil {
		return nil, 0, 0, err
	}
	wall = time.Since(start).Seconds()
	st := sess.Stats()
	runtime.ReadMemStats(&ms1)

	pl, pl0 := st.PLIStats, st0.PLIStats
	hCalls, hCached := float64(st.HCalls-st0.HCalls), float64(st.HCached-st0.HCached)
	v["entropy.h_calls"] = hCalls
	v["entropy.h_cached"] = hCached
	v["entropy.h_computed"] = hCalls - hCached
	v["entropy.memo_hit_ratio"] = ratio(hCached, hCalls)
	v["entropy.mi_calls"] = float64(st.MICalls - st0.MICalls)
	v["entropy.memo_bytes"] = float64(st.MemoBytes)
	v["entropy.memo_evictions"] = float64(st.MemoEvictions - st0.MemoEvictions)
	v["entropy.seed_hits"] = float64(st.MemoSeedHits - st0.MemoSeedHits)
	hits, misses := float64(pl.Hits-pl0.Hits), float64(pl.Misses-pl0.Misses)
	v["pli.hits"] = hits
	v["pli.misses"] = misses
	v["pli.hit_ratio"] = ratio(hits, hits+misses)
	v["pli.intersects"] = float64(pl.Intersects - pl0.Intersects)
	v["pli.entropy_only"] = float64(pl.EntropyOnly - pl0.EntropyOnly)
	v["pli.bytes_touched"] = float64(pl.BytesTouched - pl0.BytesTouched)
	v["pli.bytes_live"] = float64(pl.BytesLive)
	v["pli.bytes_pinned"] = float64(pl.BytesPinned)
	v["pli.drops"] = float64(pl.Drops - pl0.Drops)
	v["pli.demotions"] = float64(pl.Demotions - pl0.Demotions)
	v["spill.demotions"] = float64(pl.Demotions - pl0.Demotions)
	v["spill.hits"] = float64(pl.SpillHits - pl0.SpillHits)
	v["spill.bytes"] = float64(pl.SpillBytes)
	v["spill.read_s"] = float64(pl.SpillReadNS-pl0.SpillReadNS) / 1e9

	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	v["runtime.gc_cpu_fraction"] = ms1.GCCPUFraction
	v["runtime.total_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	v["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	v["runtime.heap_inuse_peak_mb"] = float64(ms1.HeapInuse) / (1 << 20) // at the end of the mine, where the caches are fullest

	workers := float64(runtime.GOMAXPROCS(0))
	var phase1Stage float64
	for _, m := range plain {
		for _, ph := range m.trace.Phases {
			if ph.Name == "schemes" {
				v["core.phase2_wall_s"] += ph.Wall.Seconds()
			} else {
				v["core.phase1_wall_s"] += ph.Wall.Seconds()
			}
			for _, s := range ph.Stages {
				stageCPU += s.CPU.Seconds()
				v["core.j_evals"] += float64(s.JEvals)
				switch s.Name {
				case "minsep":
					v["core.minsep_cpu_s"] += s.CPU.Seconds()
					v["core.minseps"] += float64(s.Items)
					v["core.candidates"] += float64(s.Candidates)
					phase1Stage += s.CPU.Seconds()
				case "fullmvd":
					v["core.fullmvd_cpu_s"] += s.CPU.Seconds()
					v["core.candidates"] += float64(s.Candidates)
					phase1Stage += s.CPU.Seconds()
				case "graph":
					v["core.graph_cpu_s"] += s.CPU.Seconds()
				case "synth":
					v["core.synth_cpu_s"] += s.CPU.Seconds()
				}
			}
		}
		v["core.mvds"] += float64(len(m.mvds))
		v["core.schemes"] += float64(len(m.schemes))
	}
	v["core.parallel_efficiency"] = ratio(phase1Stage, v["core.phase1_wall_s"]*workers)

	// What the budgets cost in rescanned bytes: the same mine unbounded.
	if w.CacheBytes > 0 || w.EntropyBytes > 0 {
		free, err := maimon.Open(rel, maimon.WithMaxSchemes(w.MaxSchemes))
		if err != nil {
			return nil, 0, 0, err
		}
		if _, err := mineOnce(ctx, free, w, eps); err != nil {
			return nil, 0, 0, err
		}
		v["pli.recompute_bytes"] = v["pli.bytes_touched"] - float64(free.Stats().PLIStats.BytesTouched)
	}
	return plain, wall, stageCPU, nil
}

// spanReplay replays the op as the calls a caller outside the program
// could make, one span each: ReadCSVFile; Open; MinePairMVDs per attribute
// pair in canonical order; SchemesFromMVDs; Analyze per scheme; Close. The
// root span carries the workload's name; on warm_sweep loading, opening
// and warming happen before the op, under a root of their own.
func spanReplay(ctx context.Context, e *env, w workload, rel *relation.Relation, csv string, plain []mined, tr *tracer, v map[string]float64) error {
	spillDir := ""
	if w.Spill {
		var err error
		if spillDir, err = e.tempDir("spill-"); err != nil {
			return err
		}
		defer os.RemoveAll(spillDir)
	}
	var sess *maimon.Session
	var err error
	open := func() {
		if csv != "" {
			s := tr.do("relation.ReadCSVFile", func() { rel, err = relation.ReadCSVFile(csv, true) })
			if err != nil {
				return
			}
			if info, serr := os.Stat(csv); serr == nil {
				v["relation.csv_parse_s"] = s.dur().Seconds()
				v["relation.csv_mb_per_s"] = ratio(float64(info.Size())/1e6, s.dur().Seconds())
			}
		}
		tr.do("maimon.Open", func() { sess, err = maimon.Open(rel, sessionOptions(w, spillDir)...) })
		tr.sess = sess
	}
	resident := w.Kind == kindSession
	if resident {
		tr.do("warmup", func() {
			if open(); err == nil {
				_, err = mineOnce(ctx, sess, w, epsOf(plain))
			}
		})
	}
	// The CLI and the service rank every scheme they mine; a Session
	// caller (warm_sweep) gets the schemes and stops.
	analyze := !resident && w.Mode == wire.ModeSchemes
	var pairSecs []float64
	var analyzed int
	// One call per attribute pair shows where phase 1 spends its time —
	// except under a memory budget: every call starts with empty
	// worker-local memos, the small shared memo thrashes, and a 1.6 s mine
	// replays in 80 s. There phase 1 is one call over all pairs, and the
	// per-pair metrics are those of cold_wide (same input, same ε).
	pairs := core.ShardPairs(rel.NumCols(), 0, 1)
	perPair := w.CacheBytes == 0 && w.EntropyBytes == 0
	batches := [][][2]int{pairs}
	if perPair {
		batches = batches[:0]
		for _, pr := range pairs {
			batches = append(batches, [][2]int{pr})
		}
	}
	tr.do(w.Name, func() {
		if !resident {
			open()
		}
		for _, m := range plain {
			if err != nil {
				return
			}
			for _, batch := range batches {
				s := tr.do("Session.MinePairMVDs", func() {
					if err == nil {
						_, err = sess.MinePairMVDs(ctx, batch, maimon.WithEpsilon(m.eps))
					}
				})
				if perPair {
					pairSecs = append(pairSecs, s.dur().Seconds())
				}
			}
			if w.Mode != wire.ModeSchemes || err != nil {
				continue
			}
			var schemes []*maimon.Scheme
			tr.do("Session.SchemesFromMVDs", func() {
				schemes, err = sess.SchemesFromMVDs(ctx, m.mvds, maimon.WithEpsilon(m.eps))
			})
			if !analyze {
				continue
			}
			for _, sc := range schemes {
				s := tr.do("Session.Analyze", func() {
					if met, aerr := sess.Analyze(sc.Schema); aerr == nil {
						v["decompose.join_rows"] += met.JoinSize
					}
				})
				v["decompose.analyze_total_s"] += s.dur().Seconds()
				analyzed++
			}
		}
		if !resident && err == nil {
			tr.do("Session.Close", func() { err = sess.Close() })
		}
	})
	tr.sess = nil
	if err != nil {
		return fmt.Errorf("span replay: %w", err)
	}
	v["decompose.analyze_ms_per_scheme"] = ratio(1e3*v["decompose.analyze_total_s"], float64(analyzed))
	if len(pairSecs) > 0 {
		v["core.pair_s_max"] = maxOf(pairSecs)
		v["core.pair_imbalance"] = ratio(maxOf(pairSecs), sum(pairSecs)/float64(len(pairSecs)))
	}
	return nil
}

func epsOf(plain []mined) []float64 {
	out := make([]float64, len(plain))
	for i, m := range plain {
		out[i] = m.eps
	}
	return out
}

// probeSets is the deterministic set list of the unit-cost probes: for
// each mined MVD X ↠ Y1|…|Ym the sets X, X∪Yi and X∪Y1…Ym — the
// entropies J reads — deduplicated in first-seen order and capped.
func probeSets(mvds []maimon.MVD) []bitset.AttrSet {
	const maxSets = 512
	seen := map[bitset.AttrSet]bool{}
	var out []bitset.AttrSet
	add := func(s bitset.AttrSet) {
		if !seen[s] && len(out) < maxSets {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, m := range mvds {
		add(m.Key)
		for _, d := range m.Deps {
			add(m.Key.Union(d))
		}
		add(m.Attrs())
	}
	return out
}

// probeLayers times the layers below the session on the workload's own
// relation: a cold shared oracle answers the set list (fresh H), then
// again (memo hits); single-attribute partitions are rebuilt; consecutive
// partitions are intersected, materialized and entropy-only; the same
// partitions go through a spill store.
func probeLayers(e *env, rel *relation.Relation, mvds []maimon.MVD, stageCPU float64, v map[string]float64) {
	sets := probeSets(mvds)
	if len(sets) == 0 {
		return
	}
	oracle := entropy.NewShared(rel, pli.DefaultConfig())
	start := time.Now()
	for _, s := range sets {
		oracle.H(s)
	}
	fresh := time.Since(start)
	v["entropy.h_fresh_us"] = float64(fresh.Microseconds()) / float64(len(sets))
	const hitRounds = 200
	start = time.Now()
	for i := 0; i < hitRounds; i++ {
		for _, s := range sets {
			oracle.H(s)
		}
	}
	v["entropy.h_hit_ns"] = float64(time.Since(start).Nanoseconds()) / float64(hitRounds*len(sets))
	// The search's own time is what is left of the stages' CPU once the
	// oracle's share is taken out at these unit costs — an estimate: H
	// calls inside a pair search are invisible from outside. Fresh computes
	// are counted at the PLI cache (each consults it once); h_computed, the
	// program's calls − cached, also counts every H(∅), which costs nothing.
	computes := v["pli.hits"] + v["pli.misses"]
	// The probe's fresh cost is that of its own set list; where partition
	// work is nearly everything (tall_mvds) it can exceed the stages' CPU,
	// and the estimate bottoms out at 0.
	v["core.search_self_s_est"] = max(0, stageCPU-v["entropy.h_cached"]*v["entropy.h_hit_ns"]/1e9-computes*v["entropy.h_fresh_us"]/1e6)

	start = time.Now()
	for j := 0; j < rel.NumCols(); j++ {
		pli.SingleAttribute(rel, j)
	}
	v["pli.single_attr_build_s"] = time.Since(start).Seconds()

	cache := pli.NewCache(rel, pli.DefaultConfig())
	var parts []*pli.Partition
	for _, s := range sets[:min(len(sets), 96)] {
		parts = append(parts, cache.Get(s))
	}
	arena := pli.NewArena()
	var rows int
	start = time.Now()
	for i := 0; i+1 < len(parts); i++ {
		arena.Intersect(parts[i], parts[i+1])
		rows += parts[i].Size() + parts[i+1].Size()
	}
	v["pli.intersect_ns_per_row"] = ratio(float64(time.Since(start).Nanoseconds()), float64(rows))
	start = time.Now()
	for i := 0; i+1 < len(parts); i++ {
		arena.IntersectEntropy(parts[i], parts[i+1])
	}
	v["pli.intersect_entropy_ns_per_row"] = ratio(float64(time.Since(start).Nanoseconds()), float64(rows))

	dir, err := e.tempDir("spillprobe-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	store, err := spill.Open(spill.Config{Dir: dir, ShapeHash: rel.ShapeHash()})
	if err != nil {
		return
	}
	defer store.Close()
	flats := make([]spill.Flat, len(parts))
	var bytes int64
	for i, p := range parts {
		f := spill.Flat{NumRows: p.NumRows(), Offsets: []int32{0}}
		for c := 0; c < p.NumClusters(); c++ {
			f.Rows = append(f.Rows, p.Cluster(c)...)
			f.Offsets = append(f.Offsets, int32(len(f.Rows)))
		}
		flats[i] = f
		bytes += f.PayloadBytes()
	}
	start = time.Now()
	for i, f := range flats {
		if store.Put(uint64(i+1), f) != nil {
			return
		}
	}
	v["spill.put_mb_per_s"] = ratio(float64(bytes)/1e6, time.Since(start).Seconds())
	start = time.Now()
	for i := range flats {
		store.Get(uint64(i + 1))
	}
	v["spill.get_us"] = float64(time.Since(start).Microseconds()) / float64(len(flats))
}

// sumSeries adds up every sample of a family (all label sets).
func sumSeries(e *obs.Exposition, name string) float64 {
	t := 0.0
	for _, s := range e.Samples {
		if s.Name == name {
			t += s.Value
		}
	}
	return t
}

// jobMetrics reads the service layer off the jobs the clients ran: what
// the service adds on top of the mine (client latency minus the job's own
// started→finished), the queue wait, the latency of a result-cache hit.
func jobMetrics(misses, hits []jobRun, v map[string]float64) {
	var overhead, queued, hitMS, sizes []float64
	for _, r := range misses {
		sizes = append(sizes, float64(r.ResultBytes))
		if r.Status.StartedAt == nil || r.Status.FinishedAt == nil {
			continue
		}
		mined := r.Status.FinishedAt.Sub(*r.Status.StartedAt)
		overhead = append(overhead, float64((r.Latency-mined).Microseconds())/1e3)
		queued = append(queued, float64(r.Status.StartedAt.Sub(r.Status.CreatedAt).Microseconds())/1e3)
	}
	for _, r := range hits {
		hitMS = append(hitMS, float64(r.Latency.Microseconds())/1e3)
	}
	if len(overhead) > 0 {
		v["service.overhead_ms"] = median(overhead)
		v["service.queue_wait_ms"] = median(queued)
	}
	if len(hitMS) > 0 {
		v["service.cache_hit_ms"] = median(hitMS)
	}
	if len(sizes) > 0 {
		v["service.result_bytes"] = median(sizes)
	}
}

// scrapeMetrics reads /metrics once: what a scrape costs, how many series
// it carries, and the result cache's own hit ratio.
func scrapeMetrics(ctx context.Context, c *client, v map[string]float64) *obs.Exposition {
	expo, took, err := c.scrape(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: scrape: %v\n", err)
		return nil
	}
	v["service.metrics_scrape_ms"] = float64(took.Microseconds()) / 1e3
	v["service.series"] = float64(expo.SeriesCount())
	ch, cm := sumSeries(expo, "maimond_result_cache_hits_total"), sumSeries(expo, "maimond_result_cache_misses_total")
	v["service.result_cache_hit_ratio"] = ratio(ch, ch+cm)
	return expo
}

// tracedDaemon runs one plain round and one observed round of
// daemon_jobs; the observed one is scraped just before shutdown.
func tracedDaemon(ctx context.Context, e *env, w workload, p *prepared, seed int64, m *measured, v map[string]float64) (untraced, tracedWall float64, err error) {
	eps := epsilons(seed)
	rng := rand.New(rand.NewSource(seed))
	plain, err := runDaemonRound(ctx, e, w, eps, rng, nil)
	if err != nil {
		return 0, 0, err
	}
	seen, err := runDaemonRound(ctx, e, w, eps, rng, func(c *client) { scrapeMetrics(ctx, c, v) })
	if err != nil {
		return 0, 0, err
	}
	jobMetrics(seen.Misses, seen.Hits, v)
	var lat []float64
	for _, run := range plain.Misses {
		lat = append(lat, run.Latency.Seconds())
	}
	v["op.wall_hi_s"], v["op.first_result_s"] = quantile(lat, 0.9), plain.First.Seconds()
	for _, r := range []daemonRound{plain, seen} {
		m.Attempted += 1 + 2*roundJobs
		for _, err := range r.Errs {
			m.fail(err)
		}
		bad, err := judgeJobs(ctx, p, r.jobs())
		if err != nil {
			return 0, 0, err
		}
		for _, b := range bad {
			m.fail(b)
		}
	}
	return plain.Proc.Wall.Seconds(), seen.Proc.Wall.Seconds(), nil
}

// tracedFleet runs one plain and one observed fleet op; the observed one
// scrapes the coordinator (dispatch, hedging, merge, memo exchange) and
// the workers (what the fleet computed) before shutdown.
func tracedFleet(ctx context.Context, e *env, w workload, p *prepared, first mined, m *measured, v map[string]float64) (untraced, tracedWall float64, err error) {
	plain, err := runFleet(ctx, e, w, p.csv, nil)
	if err != nil {
		return 0, 0, err
	}
	seen, err := runFleet(ctx, e, w, p.csv, func(coord *client, workers []*client) {
		expo := scrapeMetrics(ctx, coord, v)
		if expo == nil {
			return
		}
		v["dist.dispatches"] = sumSeries(expo, "maimond_shard_dispatches_total")
		v["dist.hedges"] = sumSeries(expo, "maimond_shard_hedges_total")
		v["dist.retries"] = sumSeries(expo, "maimond_shard_retries_total")
		v["dist.bytes_merged"] = sumSeries(expo, "maimond_shard_bytes_merged_total")
		v["dist.memo_seeded"] = sumSeries(expo, "maimond_memo_seeded_total")
		v["dist.memo_merged"] = sumSeries(expo, "maimond_memo_exported_total")
		v["dist.dup_h_avoided"] = sumSeries(expo, "maimond_memo_duplicate_h_avoided_total")
		for _, wc := range workers {
			if we, _, err := wc.scrape(ctx); err == nil {
				v["dist.fleet_h_computed"] += sumSeries(we, "maimon_entropy_h_calls") - sumSeries(we, "maimon_entropy_h_cached")
				v["entropy.seed_hits"] += sumSeries(we, "maimond_entropy_seed_hits_total")
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var mvds float64
	for _, j := range seen.Jobs {
		if j.Status.Dist != nil {
			v["dist.shards"] += float64(j.Status.Dist.ShardsTotal)
		}
		mvds += float64(len(j.Result.MVDs))
	}
	v["dist.wasted_dispatch_ratio"] = ratio(v["dist.dispatches"]-v["dist.shards"], v["dist.dispatches"])
	v["wire.bytes_per_mvd"] = ratio(v["dist.bytes_merged"], mvds)
	v["service.register_s"] = seen.Register.Seconds()
	jobMetrics(seen.Jobs, nil, v)
	var phases float64
	for _, ph := range first.trace.Phases {
		phases += ph.Wall.Seconds()
	}
	v["dist.overhead_s"] = seen.Jobs[0].Latency.Seconds() - phases
	v["op.wall_hi_s"], v["op.first_result_s"] = plain.Wall.Seconds(), plain.First.Seconds()
	for _, r := range []fleetRun{plain, seen} {
		m.Attempted++
		bad, err := judgeJobs(ctx, p, r.Jobs)
		if err != nil {
			return 0, 0, err
		}
		if len(bad) > 0 {
			m.fail(bad[0])
		}
	}
	return plain.Wall.Seconds(), seen.Wall.Seconds(), nil
}
