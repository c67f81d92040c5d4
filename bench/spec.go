package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// bounds, per-layer metrics. BENCHMARK.json at the repo root repeats these
// names for the driver; spec_test.go holds the two in agreement.

// kind selects how a workload's op is driven.
type kind int

const (
	kindCLI     kind = iota // spawn `maimon`, wait for exit
	kindSession             // child process holding one resident Session
	kindDaemon              // one `maimond`, closed-loop HTTP clients
	kindFleet               // two worker `maimond` + one coordinator
)

// workload describes what one op mines. The real-binary pass, the
// reference (check.go) and the traced replay (trace.go) all derive from
// this one description, so they cannot drift apart.
type workload struct {
	Name string
	Why  string
	Kind kind

	Input      string    // wide | tall | mid | nursery (inputs.go)
	Mode       string    // schemes | mvds
	Eps        []float64 // the op's mines, in order; nil = drawn from the seed
	MaxSchemes int       // product default 100 unless the workload names it

	CacheBytes   int64 // -cache-bytes; 0 = product default (unbounded)
	EntropyBytes int64 // -entropy-bytes; 0 = product default (unbounded)
	Spill        bool  // -spill-dir <fresh dir per op>
}

const defaultMaxSchemes = 100 // cmd/maimon -max-schemes and service.DefaultMaxSchemes

// tightCacheBytes is ≈ ⅛ of the PLI bytes an unbounded ε=0.1 mine of
// `wide` keeps live (≈ 200 MB); tightEntropyBytes holds ≈ ⅛ of its memo
// entries at 48 B each.
const (
	tightCacheBytes   = 25 << 20
	tightEntropyBytes = 48 << 10
)

// workloads are the five the driver runs; BENCHMARK.json repeats them. The
// driver's time cap (4 + 22 runs per workload, 3420 s for all of them)
// buys either many short runs or fewer long ones, and on a shared host a
// 10 s run sits inside one slow or quiet phase of the machine: eight
// workloads at 10 s in raw seconds spread past their own bounds; five at
// 18 s in host-normalised seconds (calib.go) stay within 0.4 of them.
var workloads = []workload{
	{Name: "cold_wide", Kind: kindCLI, Input: "wide", Mode: "schemes", Eps: []float64{0.1}, MaxSchemes: defaultMaxSchemes,
		Why: "one-shot CLI mine of a 13-column relation: partition building then memo-hit search, nothing evicted"},
	{Name: "tall_rank", Kind: kindCLI, Input: "mid", Mode: "schemes", Eps: []float64{0.1}, MaxSchemes: 30,
		Why: "scheme ranking: most of the time is decompose.Analyze, so a mining gain must not show here"},
	{Name: "warm_sweep", Kind: kindSession, Input: "wide", Mode: "schemes", Eps: []float64{0.02, 0.05, 0.1}, MaxSchemes: defaultMaxSchemes,
		Why: "epsilon sweep on a resident warm session: all memo hits, zero intersections; lookup and search are everything"},
	{Name: "tight_spill", Kind: kindCLI, Input: "wide", Mode: "schemes", Eps: []float64{0.1}, MaxSchemes: defaultMaxSchemes,
		CacheBytes: tightCacheBytes, EntropyBytes: tightEntropyBytes, Spill: true,
		Why: "cold_wide under one-eighth cache and memo budgets with a spill directory: evict, demote to disk, promote"},
	{Name: "fleet_2w", Kind: kindFleet, Input: "wide", Mode: "mvds", Eps: []float64{0.05, 0.1}, MaxSchemes: defaultMaxSchemes,
		Why: "coordinator plus two workers on two cores: shard RPCs, merge, hedging, memo exchange; measures dispatch waste"},
}

// extraWorkloads run by name only (`-workload tight_memory`): the driver's
// time cap has no room for them, but each isolates something a change may
// need to show — the count kernel and CSV ingest without a search
// (tall_mvds), eviction without the spill tier (tight_memory), the request
// path and its result cache (daemon_jobs).
var extraWorkloads = []workload{
	{Name: "tall_mvds", Kind: kindCLI, Input: "tall", Mode: "mvds", Eps: []float64{0.1}, MaxSchemes: defaultMaxSchemes,
		Why: "row scalability: CSV parse, single-attribute build and the count kernel dominate; few H calls, no decompose"},
	{Name: "tight_memory", Kind: kindCLI, Input: "wide", Mode: "schemes", Eps: []float64{0.1}, MaxSchemes: defaultMaxSchemes,
		CacheBytes: tightCacheBytes, EntropyBytes: tightEntropyBytes,
		Why: "cold_wide under one-eighth cache and memo budgets: evict and rebuild, RSS against wall time"},
	{Name: "daemon_jobs", Kind: kindDaemon, Input: "nursery", Mode: "schemes", MaxSchemes: defaultMaxSchemes,
		Why: "request path: two closed-loop HTTP clients, 50 distinct epsilons that miss the result cache then the same 50 that hit"},
}

func findWorkload(name string) (workload, bool) {
	for _, list := range [][]workload{workloads, extraWorkloads} {
		for _, w := range list {
			if w.Name == name {
				return w, true
			}
		}
	}
	return workload{}, false
}

// metricSpec names one metric; Bound is set on end-to-end metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // lower | higher
	Bound  float64
}

// End-to-end metrics, measured with tracing off. Every workload reports
// every one of them (the driver's contract), so each is defined on every
// workload; README.md gives the per-workload reading.
//
// wall_s and cpu_s are host-normalised (calib.go): on the shared 2-core VM
// this was sized on, memory-bound work runs 20–40 % slower for minutes at
// a time while an ALU loop holds ±2 %, so raw seconds of identical work
// spread past any usable bound. Even so the bounds are what this class of
// box resolves, not what one would wish. README.md has the measurements.
//
// The upper quartile of the op walls and the time to the first result are
// printed for people and reported by the traced pass (op.*), without a
// bound: both are the wall time over again, and every bounded metric is
// one more way for identical code to be refused on a noisy day.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// Per-layer metrics, from the traced pass. A layer that does not run in a
// workload reports 0 there (the contract wants every name on every run).
var perLayer = []metricSpec{
	{Name: "relation.csv_parse_s", Unit: "s", Better: "lower"},
	{Name: "relation.csv_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "pli.single_attr_build_s", Unit: "s", Better: "lower"},
	{Name: "pli.intersect_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pli.intersect_entropy_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pli.intersects", Unit: "count", Better: "lower"},
	{Name: "pli.entropy_only", Unit: "count", Better: "lower"},
	{Name: "pli.bytes_touched", Unit: "B", Better: "lower"},

	{Name: "pli.hits", Unit: "count", Better: "higher"},
	{Name: "pli.misses", Unit: "count", Better: "lower"},
	{Name: "pli.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pli.bytes_live", Unit: "B", Better: "lower"},
	{Name: "pli.bytes_pinned", Unit: "B", Better: "lower"},
	{Name: "pli.drops", Unit: "count", Better: "lower"},
	{Name: "pli.demotions", Unit: "count", Better: "lower"},
	{Name: "pli.recompute_bytes", Unit: "B", Better: "lower"},

	{Name: "entropy.h_calls", Unit: "count", Better: "lower"},
	{Name: "entropy.h_computed", Unit: "count", Better: "lower"},
	{Name: "entropy.h_cached", Unit: "count", Better: "lower"},
	{Name: "entropy.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "entropy.mi_calls", Unit: "count", Better: "lower"},
	{Name: "entropy.memo_bytes", Unit: "B", Better: "lower"},
	{Name: "entropy.memo_evictions", Unit: "count", Better: "lower"},
	{Name: "entropy.seed_hits", Unit: "count", Better: "higher"},
	{Name: "entropy.h_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "entropy.h_fresh_us", Unit: "us", Better: "lower"},

	{Name: "core.phase1_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.phase2_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.minsep_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.fullmvd_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.graph_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.synth_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.minseps", Unit: "count", Better: "higher"},
	{Name: "core.mvds", Unit: "count", Better: "higher"},
	{Name: "core.schemes", Unit: "count", Better: "higher"},
	{Name: "core.j_evals", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.pair_s_max", Unit: "s", Better: "lower"},
	{Name: "core.pair_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.search_self_s_est", Unit: "s", Better: "lower"},

	{Name: "decompose.analyze_total_s", Unit: "s", Better: "lower"},
	{Name: "decompose.analyze_ms_per_scheme", Unit: "ms", Better: "lower"},
	{Name: "decompose.join_rows", Unit: "count", Better: "lower"},

	{Name: "spill.demotions", Unit: "count", Better: "lower"},
	{Name: "spill.hits", Unit: "count", Better: "higher"},
	{Name: "spill.bytes", Unit: "B", Better: "lower"},
	{Name: "spill.read_s", Unit: "s", Better: "lower"},
	{Name: "spill.put_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "spill.get_us", Unit: "us", Better: "lower"},

	{Name: "service.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.register_s", Unit: "s", Better: "lower"},
	{Name: "service.result_bytes", Unit: "B", Better: "lower"},
	{Name: "service.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "service.series", Unit: "count", Better: "lower"},

	{Name: "dist.shards", Unit: "count", Better: "lower"},
	{Name: "dist.dispatches", Unit: "count", Better: "lower"},
	{Name: "dist.hedges", Unit: "count", Better: "lower"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},
	{Name: "dist.wasted_dispatch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dist.bytes_merged", Unit: "B", Better: "lower"},
	{Name: "dist.memo_seeded", Unit: "count", Better: "higher"},
	{Name: "dist.memo_merged", Unit: "count", Better: "higher"},
	{Name: "dist.dup_h_avoided", Unit: "count", Better: "higher"},
	{Name: "dist.fleet_h_computed", Unit: "count", Better: "lower"},
	{Name: "dist.overhead_s", Unit: "s", Better: "lower"},
	{Name: "wire.bytes_per_mvd", Unit: "B", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "runtime.total_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "op.wall_hi_s", Unit: "s", Better: "lower"},
	{Name: "op.first_result_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsFrom shapes measured values into the reported map, taking units
// from specs; a name the pass did not measure reports 0 (layer idle).
func metricsFrom(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
