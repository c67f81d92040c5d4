package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/wire"
)

// plantedRelation is the small, fast-to-mine dataset most tests submit
// jobs against (5 attributes, exactly decomposable plus separator noise).
func plantedRelation(t *testing.T) *relation.Relation {
	t.Helper()
	r, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags:       []bitset.AttrSet{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3), bitset.Of(3, 4)},
		RootTuples: 24, ExtPerSep: 3, Domain: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// slowRelation mines for minutes uncancelled: wide uniform-random data
// makes every candidate separate, exploding the full-MVD search.
func slowRelation() *relation.Relation { return datagen.Uniform(200, 12, 3, 7) }

func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Manager) {
	t.Helper()
	return serveManager(t, service.NewManager(service.NewRegistry(), cfg))
}

// serveManager serves mgr on a test server; both close at cleanup.
func serveManager(t testing.TB, mgr *service.Manager) (*httptest.Server, *service.Manager) {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

func decodeJSON[T any](t *testing.T, rd io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(rd).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func submitJob(t *testing.T, ts *httptest.Server, req wire.JobRequest) wire.JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	return decodeJSON[wire.JobStatus](t, resp.Body)
}

func jobStatus(t *testing.T, ts *httptest.Server, id string) wire.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d polling job %s", resp.StatusCode, id)
	}
	return decodeJSON[wire.JobStatus](t, resp.Body)
}

// waitFor polls the job until pred holds, failing the test at timeout.
func waitFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(wire.JobStatus) bool) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := jobStatus(t, ts, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not reached within %v; last state %q", id, timeout, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) wire.JobStatus {
	t.Helper()
	st := waitFor(t, ts, id, 60*time.Second, func(s wire.JobStatus) bool { return s.State.Terminal() })
	if st.State != wire.StateDone {
		t.Fatalf("job %s finished %q (error %q), want done", id, st.State, st.Error)
	}
	return st
}

func jobResult(t *testing.T, ts *httptest.Server, id string) wire.JobResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("result: status %d: %s", resp.StatusCode, b)
	}
	return decodeJSON[wire.JobResult](t, resp.Body)
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
}

// expectedResult mines synchronously through a fresh session of the
// public facade and renders the result the way the service does — the
// reference every async job is compared against.
func expectedResult(t *testing.T, r *relation.Relation, eps float64, maxSchemes int) ([]string, []float64, []string) {
	t.Helper()
	s, err := maimon.Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemes, res, err := s.MineSchemes(context.Background(), maimon.WithEpsilon(eps), maimon.WithMaxSchemes(maxSchemes))
	if err != nil {
		t.Fatal(err)
	}
	var schemaStrs []string
	var js []float64
	for _, s := range schemes {
		schemaStrs = append(schemaStrs, s.Schema.Format(r.Names()))
		js = append(js, s.J)
	}
	var mvds []string
	for _, phi := range res.MVDs {
		mvds = append(mvds, phi.Format(r.Names()))
	}
	return schemaStrs, js, mvds
}

func assertMatchesSync(t *testing.T, r *relation.Relation, eps float64, got wire.JobResult) {
	t.Helper()
	schemas, js, mvds := expectedResult(t, r, eps, maimon.DefaultMaxSchemes)
	if len(got.Schemes) != len(schemas) {
		t.Fatalf("eps=%v: job mined %d schemes, sync mined %d", eps, len(got.Schemes), len(schemas))
	}
	for i := range schemas {
		if got.Schemes[i].Schema != schemas[i] {
			t.Errorf("eps=%v scheme %d: %q != sync %q", eps, i, got.Schemes[i].Schema, schemas[i])
		}
		if diff := got.Schemes[i].J - js[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("eps=%v scheme %d: J=%v != sync %v", eps, i, got.Schemes[i].J, js[i])
		}
	}
	if len(got.MVDs) != len(mvds) {
		t.Fatalf("eps=%v: job mined %d MVDs, sync mined %d", eps, len(got.MVDs), len(mvds))
	}
	for i := range mvds {
		if got.MVDs[i].MVD != mvds[i] {
			t.Errorf("eps=%v MVD %d: %q != sync %q", eps, i, got.MVDs[i].MVD, mvds[i])
		}
	}
}

// TestEndToEndUploadSubmitPollResult drives the full HTTP workflow: CSV
// upload, submit, poll to done, fetch the result, and check it against a
// synchronous library run on the same data.
func TestEndToEndUploadSubmitPollResult(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	r := plantedRelation(t)

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets?name=planted", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	info := decodeJSON[service.DatasetInfo](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if info.Rows != r.NumRows() || info.Cols != r.NumCols() {
		t.Fatalf("uploaded as %dx%d, want %dx%d", info.Rows, info.Cols, r.NumRows(), r.NumCols())
	}

	st := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0})
	if st.State != wire.StateQueued && st.State != wire.StateRunning && st.State != wire.StateDone {
		t.Fatalf("fresh job in state %q", st.State)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.Progress.MVDs == 0 || fin.Progress.Schemes == 0 {
		t.Fatalf("done job reports no progress: %+v", fin.Progress)
	}
	res := jobResult(t, ts, st.ID)
	if res.Interrupted {
		t.Fatal("complete job flagged interrupted")
	}
	// The upload round-trips through CSV; compare against a sync run on
	// the re-parsed relation to rule out encoding drift.
	back, err := relation.ReadCSV(bytes.NewReader(csv.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSync(t, back, 0, res)
}

// TestConcurrentJobsSharedDataset is the acceptance scenario: ≥4 jobs
// against one registered dataset complete concurrently, each with results
// identical to the synchronous MineSchemes run at its ε.
func TestConcurrentJobsSharedDataset(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 4})
	r := plantedRelation(t)
	if _, err := mgr.Registry().Add("planted", r); err != nil {
		t.Fatal(err)
	}

	epsilons := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}
	ids := make([]string, len(epsilons))
	var wg sync.WaitGroup
	for i, eps := range epsilons {
		wg.Add(1)
		go func(i int, eps float64) {
			defer wg.Done()
			st := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: eps})
			ids[i] = st.ID
		}(i, eps)
	}
	wg.Wait()
	for i, eps := range epsilons {
		waitDone(t, ts, ids[i])
		assertMatchesSync(t, r, eps, jobResult(t, ts, ids[i]))
	}
}

// TestCancelInFlightJob is the acceptance cancellation scenario: a job
// over a dataset that mines for minutes is cancelled mid-flight via
// DELETE and reaches cancelled — not done — promptly.
func TestCancelInFlightJob(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	st := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	waitFor(t, ts, st.ID, 10*time.Second, func(s wire.JobStatus) bool {
		return s.State == wire.StateRunning
	})
	cancelJob(t, ts, st.ID)
	start := time.Now()
	fin := waitFor(t, ts, st.ID, 15*time.Second, func(s wire.JobStatus) bool {
		return s.State.Terminal()
	})
	if fin.State != wire.StateCancelled {
		t.Fatalf("cancelled job finished %q, want cancelled", fin.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// A cancelled job serves no result.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", resp.StatusCode)
	}
}

// TestCancelQueuedJob: with one busy worker, a queued job cancelled via
// DELETE flips to cancelled without ever running.
func TestCancelQueuedJob(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	running := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	waitFor(t, ts, running.ID, 10*time.Second, func(s wire.JobStatus) bool {
		return s.State == wire.StateRunning
	})
	queued := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.25})
	cancelJob(t, ts, queued.ID)
	fin := jobStatus(t, ts, queued.ID)
	if fin.State != wire.StateCancelled {
		t.Fatalf("queued job state %q after DELETE, want cancelled", fin.State)
	}
	if fin.Progress.Phase != "" {
		t.Fatalf("cancelled-in-queue job ran: phase %q", fin.Progress.Phase)
	}
	cancelJob(t, ts, running.ID)
}

// TestResultCacheHit: an identical resubmission completes instantly from
// the cache with the same result, and the cache counters show the hit.
func TestResultCacheHit(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 2})
	if _, err := mgr.Registry().Add("planted", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	req := wire.JobRequest{Dataset: "planted", Epsilon: 0.1}

	first := submitJob(t, ts, req)
	waitDone(t, ts, first.ID)
	firstRes := jobResult(t, ts, first.ID)

	second := submitJob(t, ts, req)
	if !second.CacheHit || second.State != wire.StateDone {
		t.Fatalf("resubmission: cache_hit=%v state=%q, want instant done from cache", second.CacheHit, second.State)
	}
	secondRes := jobResult(t, ts, second.ID)
	if fmt.Sprint(firstRes.Schemes) != fmt.Sprint(secondRes.Schemes) || fmt.Sprint(firstRes.MVDs) != fmt.Sprint(secondRes.MVDs) {
		t.Fatal("cached result differs from the original")
	}

	// A different ε misses the cache.
	third := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.11})
	if third.CacheHit {
		t.Fatal("different options served from cache")
	}
	waitDone(t, ts, third.ID)

	e := scrapeMetrics(t, ts.URL)
	hits, _ := sampleValue(e, "maimond_result_cache_hits_total", nil)
	misses, _ := sampleValue(e, "maimond_result_cache_misses_total", nil)
	if hits != 1 || misses != 2 {
		t.Fatalf("result cache: %v hits, %v misses; want 1 and 2", hits, misses)
	}
}

// TestMVDsCacheKeyIgnoresMaxSchemes: an mvds job never enumerates
// schemes, so two mvds requests that differ only in max_schemes share one
// mine — the second is a hit serving an identical result body.
func TestMVDsCacheKeyIgnoresMaxSchemes(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("planted", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	resultBody := func(id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d, %v: %s", resp.StatusCode, err, b)
		}
		return b
	}
	first := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.1, Mode: wire.ModeMVDs, MaxSchemes: 5})
	waitDone(t, ts, first.ID)
	second := submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.1, Mode: wire.ModeMVDs, MaxSchemes: 10})
	if !second.CacheHit || second.State != wire.StateDone {
		t.Fatalf("max_schemes 10 after 5: cache_hit=%v state=%q, want a hit", second.CacheHit, second.State)
	}
	if a, b := resultBody(first.ID), resultBody(second.ID); !bytes.Equal(a, b) {
		t.Fatalf("result bodies differ:\n%s\n%s", a, b)
	}
}

// TestDatasetRemovalInvalidatesCache: DELETE /datasets/{name} drops the
// dataset's cached results, so re-registering different data under the
// same name cannot serve stale schemes.
func TestDatasetRemovalInvalidatesCache(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 2})
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	req := wire.JobRequest{Dataset: "d", Epsilon: 0}
	first := submitJob(t, ts, req)
	waitDone(t, ts, first.ID)

	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/d", nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset delete: status %d", resp.StatusCode)
	}

	// Same name, different data: nursery sample instead of planted.
	if _, err := mgr.Registry().Add("d", datagen.Nursery().Head(400)); err != nil {
		t.Fatal(err)
	}
	second := submitJob(t, ts, req)
	if second.CacheHit {
		t.Fatal("job on re-registered dataset served stale cached result")
	}
	waitDone(t, ts, second.ID)
}

// TestNurseryJob runs one job on a sample of the paper's use-case
// dataset end to end.
func TestNurseryJob(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 2})
	r := datagen.Nursery().Head(600)
	if _, err := mgr.Registry().Add("nursery", r); err != nil {
		t.Fatal(err)
	}
	st := submitJob(t, ts, wire.JobRequest{Dataset: "nursery", Epsilon: 0.1})
	waitDone(t, ts, st.ID)
	assertMatchesSync(t, r, 0.1, jobResult(t, ts, st.ID))
}

// TestJobTimeoutCompletesInterrupted: a job whose timeout_ms fires ends
// done with partial, Interrupted-flagged results — and those are not
// cached.
func TestJobTimeoutCompletesInterrupted(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	req := wire.JobRequest{Dataset: "slow", Epsilon: 0.3, TimeoutMS: 100}
	st := submitJob(t, ts, req)
	fin := waitFor(t, ts, st.ID, 30*time.Second, func(s wire.JobStatus) bool {
		return s.State.Terminal()
	})
	if fin.State != wire.StateDone {
		t.Fatalf("timed-out job state %q, want done with partial results", fin.State)
	}
	res := jobResult(t, ts, st.ID)
	if !res.Interrupted {
		t.Fatal("timed-out job not flagged interrupted")
	}
	second := submitJob(t, ts, req)
	if second.CacheHit {
		t.Fatal("interrupted partial result was cached")
	}
	cancelJob(t, ts, second.ID)
}

// TestHTTPValidation covers the API's error surface.
func TestHTTPValidation(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := post("/v1/jobs", `{"dataset":"missing"}`); s != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", s)
	}
	if s := post("/v1/jobs", `{"dataset":"d","mode":"nonsense"}`); s != http.StatusBadRequest {
		t.Errorf("bad mode: status %d, want 400", s)
	}
	if s := post("/v1/jobs", `{"dataset":"d","epsilon":-1}`); s != http.StatusBadRequest {
		t.Errorf("negative epsilon: status %d, want 400", s)
	}
	if s := post("/v1/jobs", `{"dataset":"d","bogus":true}`); s != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", s)
	}
	if s := post("/v1/datasets?name=d", "A,B,C\n1,2,3\n"); s != http.StatusConflict {
		t.Errorf("duplicate dataset: status %d, want 409", s)
	}
	if s := post("/v1/datasets", "A,B,C\n1,2,3\n"); s != http.StatusBadRequest {
		t.Errorf("missing name: status %d, want 400", s)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestUploadConflict: a taken name answers 409 before the body is
// parsed — a body that would not parse changes nothing — and the
// registry's error is ErrDatasetExists.
func TestUploadConflict(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/datasets?name=d", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := post("A,B\n1,2\n"); s != http.StatusCreated {
		t.Fatalf("first upload: status %d, want 201", s)
	}
	for _, body := range []string{"A,B\n1,2\n", "A,B\n\"1,2\n"} {
		if s := post(body); s != http.StatusConflict {
			t.Errorf("duplicate upload %q: status %d, want 409", body, s)
		}
	}
	if _, err := mgr.Registry().AddCSV("d", strings.NewReader("A\nx\n"), true); !errors.Is(err, service.ErrDatasetExists) {
		t.Errorf("AddCSV of a taken name: %v, want ErrDatasetExists", err)
	}
	if _, err := mgr.Registry().Add("d", plantedRelation(t)); !errors.Is(err, service.ErrDatasetExists) {
		t.Errorf("Add of a taken name: %v, want ErrDatasetExists", err)
	}
}

// TestUploadTooLarge: a body one byte over the upload limit answers 413,
// and registers nothing.
func TestUploadTooLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64 MiB body")
	}
	_, mgr := newTestServer(t, service.Config{Workers: 1})
	lines := strings.NewReader(strings.Repeat("a,b\n", 1<<10))
	body := io.LimitReader(repeatReader{lines}, service.MaxUploadBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets?name=big", body)
	rec := httptest.NewRecorder()
	service.NewServer(mgr).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", rec.Code, rec.Body)
	}
	if _, ok := mgr.Registry().Info("big"); ok {
		t.Fatal("an oversized upload was registered")
	}
}

// repeatReader reads its reader's bytes over and over.
type repeatReader struct{ r *strings.Reader }

func (rr repeatReader) Read(p []byte) (int, error) {
	if rr.r.Len() == 0 {
		rr.r.Seek(0, io.SeekStart)
	}
	return rr.r.Read(p)
}

// TestQueueBackpressure: a full queue rejects submissions with 503.
func TestQueueBackpressure(t *testing.T) {
	ts, mgr := serveManager(t, service.NewManagerWithQueue(service.NewRegistry(), service.Config{Workers: 1}, 1))
	if _, err := mgr.Registry().Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	running := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	waitFor(t, ts, running.ID, 10*time.Second, func(s wire.JobStatus) bool {
		return s.State == wire.StateRunning
	})
	queued := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.25})

	body, _ := json.Marshal(wire.JobRequest{Dataset: "slow", Epsilon: 0.2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue: status %d, want 503", resp.StatusCode)
	}
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
}

// TestResultCacheMissesCountMines: the miss counter counts uncached jobs
// that started mining. A submit refused with 503, a job cancelled while
// queued and a job whose dataset was removed before it ran mine nothing,
// and leave maimond_result_cache_misses_total where it was.
func TestResultCacheMissesCountMines(t *testing.T) {
	ts, mgr := serveManager(t, service.NewManagerWithQueue(service.NewRegistry(), service.Config{Workers: 1}, 1))
	for name, r := range map[string]*relation.Relation{"slow": slowRelation(), "gone": slowRelation(), "planted": plantedRelation(t)} {
		if _, err := mgr.Registry().Add(name, r); err != nil {
			t.Fatal(err)
		}
	}
	misses := func(want float64, after string) {
		t.Helper()
		if got, _ := sampleValue(scrapeMetrics(t, ts.URL), "maimond_result_cache_misses_total", nil); got != want {
			t.Fatalf("after %s: %v result-cache misses, want %v", after, got, want)
		}
	}
	isRunning := func(s wire.JobStatus) bool { return s.State == wire.StateRunning }
	isTerminal := func(s wire.JobStatus) bool { return s.State.Terminal() }
	// drained waits until the one worker has taken every queued job.
	drained := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if depth, _ := sampleValue(scrapeMetrics(t, ts.URL), "maimond_jobs_queue_depth", nil); depth == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("queue never drained")
			}
			time.Sleep(time.Millisecond)
		}
	}

	running := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	waitFor(t, ts, running.ID, 10*time.Second, isRunning)
	misses(1, "one job mining")
	queued := submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.25})
	misses(1, "one job queued")
	body, _ := json.Marshal(wire.JobRequest{Dataset: "slow", Epsilon: 0.2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue: status %d, want 503", resp.StatusCode)
	}
	misses(1, "a 503")
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
	waitFor(t, ts, running.ID, 10*time.Second, isTerminal)
	drained()
	misses(1, "a job cancelled while queued")

	running = submitJob(t, ts, wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	waitFor(t, ts, running.ID, 10*time.Second, isRunning)
	orphan := submitJob(t, ts, wire.JobRequest{Dataset: "gone", Epsilon: 0.3})
	if !mgr.RemoveDataset("gone") {
		t.Fatal("dataset gone not removed")
	}
	cancelJob(t, ts, running.ID)
	if st := waitFor(t, ts, orphan.ID, 10*time.Second, isTerminal); st.State != wire.StateFailed {
		t.Fatalf("job on a removed dataset ended %q, want failed", st.State)
	}
	misses(2, "a job whose dataset was removed before it ran")

	waitDone(t, ts, submitJob(t, ts, wire.JobRequest{Dataset: "planted", Epsilon: 0.1}).ID)
	misses(3, "a mined job")
}
