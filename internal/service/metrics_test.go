package service_test

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// scrapeMetrics fetches and strictly parses /metrics.
func scrapeMetrics(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/metrics: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want text exposition 0.0.4", ct)
	}
	e, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics serves malformed exposition: %v", err)
	}
	return e
}

// sampleValue returns the value of the family's single matching sample,
// summed across children when a label filter is given.
func sampleValue(e *obs.Exposition, name string, labels map[string]string) (float64, bool) {
	sum, found := 0.0, false
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			sum += s.Value
			found = true
		}
	}
	return sum, found
}

// managerFamilies is every metric family a manager without a
// coordinator exports once it has served HTTP and mined a job. A family
// added or removed must be added to or removed from this list, and to
// README's Observability table.
var managerFamilies = []string{
	"maimon_entropy_h_cached",
	"maimon_entropy_h_calls",
	"maimon_entropy_mi_calls",
	"maimon_pli_bytes_live",
	"maimon_pli_bytes_pinned",
	"maimon_pli_bytes_touched",
	"maimon_pli_entries",
	"maimon_pli_entropy_only",
	"maimon_pli_evictions",
	"maimon_pli_hits",
	"maimon_pli_intersects",
	"maimon_pli_misses",
	"maimon_spill_bytes",
	"maimon_spill_demotions_total",
	"maimon_spill_hits_total",
	"maimon_spill_read_seconds",
	"maimon_stage_calls_total",
	"maimon_stage_cpu_seconds_total",
	"maimond_build_info",
	"maimond_datasets_registered",
	"maimond_entropy_memo_bytes",
	"maimond_entropy_memo_evictions_total",
	"maimond_http_requests_total",
	"maimond_job_duration_seconds",
	"maimond_jobs_completed_total",
	"maimond_jobs_queue_depth",
	"maimond_jobs_running",
	"maimond_jobs_submitted_total",
	"maimond_result_cache_hits_total",
	"maimond_result_cache_misses_total",
	"maimond_shards_served_total",
}

// TestMetricsEndToEnd is the in-process version of the CI scrape gate:
// boot the service, run a mining job over HTTP, then scrape /metrics and
// hold the output to the same checks promcheck applies — strict
// exposition format, at least 20 distinct series — plus the exact family
// set and value-level checks a generic linter cannot.
func TestMetricsEndToEnd(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("planted", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.01}).ID
	waitDone(t, ts, id)

	e := scrapeMetrics(t, ts.URL)
	if n := e.SeriesCount(); n < 20 {
		t.Errorf("/metrics has %d distinct series, want >= 20", n)
	}
	var got []string
	for name := range e.Families {
		got = append(got, name)
	}
	slices.Sort(got)
	if !slices.Equal(got, managerFamilies) {
		t.Errorf("/metrics families:\n got %q\nwant %q", got, managerFamilies)
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"maimond_jobs_submitted_total", nil, 1},
		{"maimond_jobs_completed_total", map[string]string{"state": "done"}, 1},
		{"maimond_jobs_running", nil, 0},
		{"maimond_job_duration_seconds_count", nil, 1},
		{"maimond_datasets_registered", nil, 1},
	}
	for _, c := range checks {
		got, ok := sampleValue(e, c.name, c.labels)
		if !ok || got != c.want {
			t.Errorf("%s%v = %v (present=%v), want %v", c.name, c.labels, got, ok, c.want)
		}
	}
	// A schemes-mode mine runs all four stages; each must have counted.
	for _, stage := range []string{"minsep", "fullmvd", "graph", "synth"} {
		if v, ok := sampleValue(e, "maimon_stage_calls_total",
			map[string]string{"stage": stage}); !ok || v <= 0 {
			t.Errorf("maimon_stage_calls_total{stage=%q} = %v, want > 0", stage, v)
		}
	}
	// The mine itself must be visible through the session-derived series.
	if v, ok := sampleValue(e, "maimon_entropy_h_calls", nil); !ok || v <= 0 {
		t.Errorf("maimon_entropy_h_calls = %v after a mine, want > 0", v)
	}
	if v, ok := sampleValue(e, "maimon_pli_bytes_touched", nil); !ok || v <= 0 {
		t.Errorf("maimon_pli_bytes_touched = %v after a mine, want > 0", v)
	}
	// The scrape and job polls above went through the HTTP middleware.
	if v, ok := sampleValue(e, "maimond_http_requests_total",
		map[string]string{"route": "POST /v1/jobs", "code": "202"}); !ok || v != 1 {
		t.Errorf("maimond_http_requests_total{route=\"POST /v1/jobs\",code=\"202\"} = %v, want 1", v)
	}

	// A second identical submit is a result-cache hit; the counters and a
	// re-scrape must agree.
	id2 := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.01})
	if !id2.CacheHit {
		t.Fatal("second identical submit was not a cache hit")
	}
	e2 := scrapeMetrics(t, ts.URL)
	if v, _ := sampleValue(e2, "maimond_result_cache_hits_total", nil); v != 1 {
		t.Errorf("maimond_result_cache_hits_total = %v after a cached submit, want 1", v)
	}
}

// TestReadyzFlipsOnClose: readiness follows the manager lifecycle — 200
// while accepting work, 503 after Close; liveness stays 200 throughout.
func TestReadyzFlipsOnClose(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/v1/readyz"); got != http.StatusOK {
		t.Errorf("/v1/readyz before close: status %d, want 200", got)
	}
	mgr.Close()
	if got := status("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/v1/readyz after close: status %d, want 503", got)
	}
	if got := status("/v1/healthz"); got != http.StatusOK {
		t.Errorf("/v1/healthz after close: status %d, want 200 (liveness is not readiness)", got)
	}
}

// TestEntropyOnlySurfacedInStatus: under a starvation-level memory budget
// the engine answers intersections as streaming counts without
// materializing partitions; that count must surface through the job's
// memory status (and, with telemetry, the maimon_pli_entropy_only gauge).
func TestEntropyOnlySurfacedInStatus(t *testing.T) {
	tel := service.NewTelemetry(obs.NewRegistry(), nil)
	reg := service.NewRegistry(maimon.WithMemoryBudget(1))
	if _, err := reg.Add("nursery", datagen.Nursery().Head(400)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1, Telemetry: tel})
	defer mgr.Close()
	job, err := mgr.Submit(wire.JobRequest{Dataset: "nursery", Epsilon: 0.1, Mode: wire.ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != wire.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Memory == nil || st.Memory.EntropyOnly == 0 {
		t.Fatalf("memory status does not surface entropy-only intersections: %+v", st.Memory)
	}
}

// TestCancelledQueuedCountedOnce: a job cancelled while queued is counted
// exactly once in maimond_jobs_completed_total{state="cancelled"}, even
// after the worker later drains it from the queue and finds it already
// terminal.
func TestCancelledQueuedCountedOnce(t *testing.T) {
	oreg := obs.NewRegistry()
	tel := service.NewTelemetry(oreg, nil)
	reg := service.NewRegistry()
	if _, err := reg.Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("planted", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1, Telemetry: tel})
	defer mgr.Close()

	running, err := mgr.Submit(wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := mgr.Submit(wire.JobRequest{Dataset: "planted", Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	for _, job := range []*service.Job{running, queued} {
		select {
		case <-job.Done():
		case <-time.After(60 * time.Second):
			t.Fatal("job did not reach a terminal state")
		}
	}
	// A trailing fast job forces the single worker past the cancelled
	// queue entry (FIFO) before we scrape.
	tail, err := mgr.Submit(wire.JobRequest{Dataset: "planted", Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tail.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("tail job did not finish")
	}
	// Done closes before the worker counts the job; Close returns once the
	// worker has left run, so the scrape below sees the tail's count.
	mgr.Close()

	var sb strings.Builder
	if err := oreg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sampleValue(e, "maimond_jobs_completed_total",
		map[string]string{"state": "cancelled"}); v != 2 {
		t.Errorf("jobs_completed_total{state=cancelled} = %v, want 2 (one queued, one running; no double count)", v)
	}
	if v, _ := sampleValue(e, "maimond_jobs_completed_total",
		map[string]string{"state": "done"}); v != 1 {
		t.Errorf("jobs_completed_total{state=done} = %v, want 1", v)
	}
}
