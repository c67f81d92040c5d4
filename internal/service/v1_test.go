package service_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/wire"
)

// Every API route is served under /v1 only: the unversioned paths are 404.
func TestV1RoutesOnly(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/d")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeJSON[service.DatasetInfo](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Name != "d" {
		t.Fatalf("/v1/datasets/d: status %d, name %q", resp.StatusCode, info.Name)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeJSON[map[string]any](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(health) != 1 || health["status"] != "ok" {
		t.Fatalf("/v1/healthz: status %d, body %v", resp.StatusCode, health)
	}

	for _, path := range []string{"/jobs", "/datasets/d", "/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (no unversioned aliases)", path, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"dataset":"d"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /jobs: status %d, want 404 (no unversioned aliases)", resp.StatusCode)
	}

	// Submit on /v1, poll and fetch the result on /v1 paths end to end.
	body := strings.NewReader(`{"dataset":"d","epsilon":0,"mode":"schemes"}`)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[wire.JobStatus](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	waitDone(t, ts, st.ID)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decodeJSON[wire.JobResult](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(res.MVDs) == 0 {
		t.Fatalf("GET /v1/jobs/{id}/result: status %d, %d MVDs", resp.StatusCode, len(res.MVDs))
	}
}

// GET /v1/jobs/{id} must carry live Progress sourced from the miner's
// event stream: the pair loop tracked to completion, candidates counted,
// and the MVD total matching the result.
func TestJobProgressFromEventStream(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	st := submitJob(t, ts, wire.JobRequest{Dataset: "d", Epsilon: 0})
	fin := waitDone(t, ts, st.ID)
	res := jobResult(t, ts, st.ID)

	p := fin.Progress
	// plantedRelation has 5 attributes: C(5,2) = 10 pairs.
	if p.PairsTotal != 10 || p.PairsDone != p.PairsTotal {
		t.Fatalf("pair progress %d/%d, want 10/10", p.PairsDone, p.PairsTotal)
	}
	if p.Candidates == 0 {
		t.Fatalf("no candidates recorded: %+v", p)
	}
	if p.MVDs != len(res.MVDs) {
		t.Fatalf("progress reports %d MVDs, result has %d", p.MVDs, len(res.MVDs))
	}
	if p.Phase != "schemes" || p.Schemes == 0 {
		t.Fatalf("final phase %q with %d schemes, want schemes phase with > 0", p.Phase, p.Schemes)
	}
}

// A dataset swapped between submit and run for an unminable one (removed
// and re-registered under the same name with 2 columns) must fail the job
// cleanly, not panic the worker.
func TestJobFailsCleanlyWhenDatasetSwappedNarrow(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	// Occupy the single worker so the job on "d" stays queued while the
	// dataset is swapped underneath it.
	blocker := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	victim := submitJob(t, ts, wire.JobRequest{Dataset: "d", Epsilon: 0})
	if !mgr.RemoveDataset("d") {
		t.Fatal("remove failed")
	}
	narrow, err := relation.FromRows([]string{"A", "B"}, [][]string{{"x", "y"}, {"u", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Registry().Add("d", narrow); err != nil {
		t.Fatal(err)
	}
	cancelJob(t, ts, blocker.ID)
	fin := waitFor(t, ts, victim.ID, 30*time.Second,
		func(s wire.JobStatus) bool { return s.State.Terminal() })
	if fin.State != wire.StateFailed {
		t.Fatalf("swapped-dataset job finished %q (error %q), want failed", fin.State, fin.Error)
	}
}

// Jobs over one dataset share its registry session: the second job (at a
// different ε, so no result-cache hit) must be answered partly from the
// entropy memo the first job warmed.
func TestJobsShareWarmSession(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	first := submitJob(t, ts, wire.JobRequest{Dataset: "d", Epsilon: 0})
	waitDone(t, ts, first.ID)
	sess, ok := mgr.Registry().Get("d")
	if !ok {
		t.Fatal("dataset session missing")
	}
	before := sess.Stats()

	second := submitJob(t, ts, wire.JobRequest{Dataset: "d", Epsilon: 0.1})
	fin := waitDone(t, ts, second.ID)
	if fin.CacheHit {
		t.Fatal("second job unexpectedly served from the result cache")
	}
	after := sess.Stats()
	if after.HCached <= before.HCached {
		t.Fatalf("second job recorded no warm-memo hits (HCached %d -> %d)", before.HCached, after.HCached)
	}
}
