package service

import (
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	maimon "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Telemetry bundles the service's observability surface: the metrics
// registry GET /metrics scrapes and the structured logger the job
// lifecycle writes to. Every Manager has one: NewManager builds a
// private bundle when Config.Telemetry is nil.
//
// Metric naming: maimond_* series describe the service process (jobs,
// queue, HTTP, result cache) and counters carry the _total suffix;
// maimon_* series are sums of the per-dataset session counters (entropy
// oracle, PLI cache) exposed as gauges — removing a dataset removes its
// session's contribution, so those sums can decrease and must not claim
// counter monotonicity.
type Telemetry struct {
	reg *obs.Registry
	log *slog.Logger

	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsRunning   *obs.Gauge
	jobDuration   *obs.Histogram

	shardsServed *obs.Counter
}

// NewTelemetry builds a telemetry bundle over the given registry and
// logger. A nil registry gets a fresh obs.NewRegistry; a nil logger
// discards (metrics without logs is a normal embedding).
func NewTelemetry(reg *obs.Registry, log *slog.Logger) *Telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	t := &Telemetry{reg: reg, log: log}
	t.jobsSubmitted = reg.Counter("maimond_jobs_submitted_total",
		"Mining jobs accepted by Submit (including result-cache hits).")
	completed := func(state string) *obs.Counter {
		return reg.Counter("maimond_jobs_completed_total",
			"Mining jobs that reached a terminal state, by state.",
			obs.L("state", state))
	}
	t.jobsDone = completed("done")
	t.jobsFailed = completed("failed")
	t.jobsCancelled = completed("cancelled")
	t.jobsRunning = reg.Gauge("maimond_jobs_running",
		"Mining jobs currently executing on the worker pool.")
	t.jobDuration = reg.Histogram("maimond_job_duration_seconds",
		"Wall time of mining-job execution (queued time excluded).",
		[]float64{.005, .025, .1, .5, 1, 5, 30, 120, 600, 1800})
	t.shardsServed = reg.Counter("maimond_shards_served_total",
		"Distributed-mine shard requests this node answered successfully as a worker.")
	reg.GaugeFunc("maimond_build_info",
		"Constant 1, labeled with the Go runtime version the binary was built with.",
		func() float64 { return 1 }, obs.L("go_version", runtime.Version()))
	return t
}

// observeTrace folds one job's stage-level mine trace into the per-stage
// duration and call counters. Runs once per finished mine (never on a
// hot path), so get-or-create child registration per (phase, stage) is
// fine — the label space is the paper's four stages.
func (t *Telemetry) observeTrace(tr *obs.MineTrace) {
	if tr == nil {
		return
	}
	for i := range tr.Phases {
		p := &tr.Phases[i]
		for _, s := range p.Stages {
			labels := []obs.Label{obs.L("phase", p.Name), obs.L("stage", s.Name)}
			t.reg.Counter("maimon_stage_cpu_seconds_total",
				"CPU time mining jobs spent per stage, summed across parallel workers.",
				labels...).Add(s.CPU.Seconds())
			t.reg.Counter("maimon_stage_calls_total",
				"Stage invocations (separator searches, full-MVD expansions, graph builds, schema syntheses).",
				labels...).Add(float64(s.Calls))
		}
	}
}

// Registry returns the underlying metrics registry.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Logger returns the structured logger.
func (t *Telemetry) Logger() *slog.Logger { return t.log }

// bindManager registers the series that read live manager state: queue
// depth, result-cache counters, dataset count, and the session-derived
// maimon_* sums. Called once from NewManager; re-binding a registry
// keeps the first callback (obs.GaugeFunc semantics), which only matters
// if two managers share one registry — an embedding this package does
// not ship.
func (t *Telemetry) bindManager(m *Manager) {
	r := t.reg
	r.GaugeFunc("maimond_jobs_queue_depth",
		"Jobs waiting in the bounded submit queue.",
		func() float64 { return float64(len(m.queue)) })
	r.CounterFunc("maimond_result_cache_hits_total",
		"Result-cache lookups served from cache.",
		func() float64 { return float64(m.hits.Load()) })
	r.CounterFunc("maimond_result_cache_misses_total",
		"Uncached jobs that started mining.",
		func() float64 { return float64(m.misses.Load()) })
	r.GaugeFunc("maimond_datasets_registered",
		"Datasets currently registered (one warm session each).",
		func() float64 { return float64(m.reg.Len()) })

	// Session-derived sums. Each callback walks every registered session's
	// striped counters at scrape time — cheap (a few atomic loads per
	// shard) and always consistent with what Session.Stats reports.
	sum := func(pick func(maimon.Stats) float64) func() float64 {
		return func() float64 {
			total := 0.0
			m.reg.EachSession(func(_ string, s *maimon.Session) {
				total += pick(s.Stats())
			})
			return total
		}
	}
	r.GaugeFunc("maimon_entropy_h_calls",
		"Entropy requests across all live sessions (sum; falls when a dataset is removed).",
		sum(func(s maimon.Stats) float64 { return float64(s.HCalls) }))
	r.GaugeFunc("maimon_entropy_h_cached",
		"Entropy requests served from the memo across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.HCached) }))
	r.GaugeFunc("maimon_entropy_mi_calls",
		"Conditional-mutual-information evaluations across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.MICalls) }))
	r.GaugeFunc("maimon_pli_hits",
		"PLI partition-cache hits across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Hits) }))
	r.GaugeFunc("maimon_pli_misses",
		"PLI partitions computed across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Misses) }))
	r.GaugeFunc("maimon_pli_intersects",
		"Pairwise partition intersections across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Intersects) }))
	r.GaugeFunc("maimon_pli_entropy_only",
		"Intersections answered as streaming counts, never materialized (chain leaf or over budget), across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.EntropyOnly) }))
	r.GaugeFunc("maimon_pli_bytes_live",
		"Bytes retained by evictable PLI partitions across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.BytesLive) }))
	r.GaugeFunc("maimon_pli_bytes_pinned",
		"Bytes retained by pinned single-attribute PLI partitions (outside the budget) across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.BytesPinned) }))
	r.GaugeFunc("maimond_entropy_memo_bytes",
		"Bytes retained by the entropy memos across all live sessions (-entropy-bytes bounds each session's).",
		sum(func(s maimon.Stats) float64 { return float64(s.MemoBytes) }))
	r.CounterFunc("maimond_entropy_memo_evictions_total",
		"Entropy-memo entries evicted under -entropy-bytes across all live sessions (resets when a dataset is removed).",
		sum(func(s maimon.Stats) float64 { return float64(s.MemoEvictions) }))
	r.GaugeFunc("maimon_pli_bytes_touched",
		"Partition bytes scanned by the intersection engine across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.BytesTouched) }))
	r.GaugeFunc("maimon_pli_evictions",
		"PLI partitions evicted under the memory budget across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Drops + s.PLIStats.Demotions) }))
	r.GaugeFunc("maimon_pli_entries",
		"PLI partitions currently cached across all live sessions.",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Entries) }))
	r.GaugeFunc("maimon_spill_bytes",
		"On-disk footprint of the PLI spill tiers across all live sessions (0 without -spill-dir).",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.SpillBytes) }))
	r.CounterFunc("maimon_spill_hits_total",
		"Requests served by promoting a spilled partition instead of recomputing, across all live sessions (resets when a dataset is removed).",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.SpillHits) }))
	r.CounterFunc("maimon_spill_demotions_total",
		"PLI evictions that demoted the partition to the spill tier instead of dropping it, across all live sessions (resets when a dataset is removed).",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.Demotions) }))
	r.CounterFunc("maimon_spill_read_seconds",
		"Seconds spent reading promoted partitions back from the spill tier, across all live sessions (resets when a dataset is removed).",
		sum(func(s maimon.Stats) float64 { return float64(s.PLIStats.SpillReadNS) / 1e9 }))
}

// jobSubmitted records a Submit outcome.
func (t *Telemetry) jobSubmitted(job *Job) {
	t.jobsSubmitted.Inc()
	if job.cacheHit {
		t.jobsDone.Inc()
	}
	t.log.Info("job submitted",
		"job", job.id, "dataset", job.req.Dataset, "mode", job.req.Mode,
		"epsilon", job.req.Epsilon, "workers", job.req.Workers,
		"cache_hit", job.cacheHit)
}

// jobStarted records a queued → running transition.
func (t *Telemetry) jobStarted(job *Job) {
	t.jobsRunning.Inc()
	t.log.Info("job started", "job", job.id, "dataset", job.req.Dataset)
}

// jobFinished records a running job reaching a terminal state; elapsed
// is the execution wall time (not queued time).
func (t *Telemetry) jobFinished(job *Job, state wire.State, elapsed time.Duration, errMsg string) {
	t.jobsRunning.Dec()
	t.jobDuration.Observe(elapsed.Seconds())
	switch state {
	case wire.StateDone:
		t.jobsDone.Inc()
	case wire.StateFailed:
		t.jobsFailed.Inc()
	case wire.StateCancelled:
		t.jobsCancelled.Inc()
	}
	attrs := []any{
		"job", job.id, "dataset", job.req.Dataset, "state", string(state),
		"elapsed_ms", elapsed.Milliseconds(),
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if state == wire.StateFailed {
		t.log.Error("job finished", attrs...)
	} else {
		t.log.Info("job finished", attrs...)
	}
}

// jobCancelledQueued records a job cancelled before any worker ran it.
func (t *Telemetry) jobCancelledQueued(job *Job) {
	t.jobsCancelled.Inc()
	t.log.Info("job cancelled while queued", "job", job.id, "dataset", job.req.Dataset)
}

// shardServed records one inbound shard mine (this node as a worker).
func (t *Telemetry) shardServed(req wire.ShardRequest, pairs int, elapsed time.Duration, err error) {
	if err != nil {
		t.log.Warn("shard mine failed",
			"dataset", req.Dataset, "shard", req.Shard, "num_shards", req.NumShards,
			"elapsed_ms", elapsed.Milliseconds(), "error", err.Error())
		return
	}
	t.shardsServed.Inc()
	t.log.Info("shard mined",
		"dataset", req.Dataset, "shard", req.Shard, "num_shards", req.NumShards,
		"epsilon", req.Epsilon, "pairs", pairs, "elapsed_ms", elapsed.Milliseconds())
}

// datasetAdded / datasetRemoved log registry changes.
func (t *Telemetry) datasetAdded(info DatasetInfo) {
	t.log.Info("dataset registered",
		"dataset", info.Name, "rows", info.Rows, "cols", info.Cols)
}

func (t *Telemetry) datasetRemoved(name string) {
	t.log.Info("dataset removed", "dataset", name)
}

// statusRecorder captures the response code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps mux with the HTTP request counter, labeled by route,
// method and status code. The route label is the ServeMux pattern that
// matched (resolved via mux.Handler before serving, so /v1/jobs/{id}
// stays one series no matter how many jobs exist); unmatched requests
// fall under "unmatched".
func (t *Telemetry) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r)
		t.reg.Counter("maimond_http_requests_total",
			"HTTP requests served, by matched route, method and status code.",
			obs.L("route", route), obs.L("method", r.Method),
			obs.L("code", strconv.Itoa(rec.code))).Inc()
	})
}
