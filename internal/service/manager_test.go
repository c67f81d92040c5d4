package service_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/wire"
)

func TestRegistryLifecycle(t *testing.T) {
	reg := service.NewRegistry()
	info, err := reg.AddCSV("d", strings.NewReader("A,B,C\nx,y,z\nx,v,w\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 2 || info.Cols != 3 || info.Attrs[0] != "A" {
		t.Fatalf("info = %+v", info)
	}
	if _, err := reg.AddCSV("d", strings.NewReader("A\n1\n"), true); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, ok := reg.Get("d"); !ok {
		t.Fatal("registered dataset not found")
	}
	if got := len(reg.List()); got != 1 {
		t.Fatalf("List has %d entries", got)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	if !mgr.RemoveDataset("d") || mgr.RemoveDataset("d") {
		t.Fatal("RemoveDataset semantics")
	}
	if _, ok := reg.Get("d"); ok {
		t.Fatal("removed dataset still found")
	}
	if _, err := reg.Add("", datagen.Nursery().Head(10)); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestManagerSubmitValidation(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.AddCSV("narrow", strings.NewReader("A,B\n1,2\n"), true); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	for _, req := range []wire.JobRequest{
		{Dataset: "missing"},
		{Dataset: "narrow"},                // < 3 attributes
		{Dataset: "narrow", Epsilon: -0.1}, // negative ε
		{Dataset: "narrow", Mode: "wat"},   // unknown mode
		{Dataset: "narrow", TimeoutMS: -5}, // negative timeout
	} {
		if _, err := mgr.Submit(req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
}

func TestManagerDefaultsApplied(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("d", datagen.Nursery().Head(50)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	job, err := mgr.Submit(wire.JobRequest{Dataset: "d"})
	if err != nil {
		t.Fatal(err)
	}
	req := job.Request()
	if req.Mode != wire.ModeSchemes {
		t.Errorf("default mode = %q", req.Mode)
	}
	if req.MaxSchemes != maimon.DefaultMaxSchemes {
		t.Errorf("default max_schemes = %d", req.MaxSchemes)
	}
	<-job.Done()
}

// TestJobRetentionBound: beyond the retention bound, the oldest finished
// jobs are evicted so a resident daemon's memory stays bounded.
func TestJobRetentionBound(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.AddCSV("d", strings.NewReader("A,B,C\nx,y,z\nx,v,w\nu,y,w\n"), true); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManagerRetaining(reg, service.Config{Workers: 1}, 3)
	defer mgr.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		// Distinct epsilons defeat the cache so every job really runs.
		job, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: float64(i) * 0.01})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		ids = append(ids, job.ID())
	}
	if got := len(mgr.Jobs()); got > 3 {
		t.Fatalf("retained %d job records, cap is 3", got)
	}
	if _, ok := mgr.Job(ids[0]); ok {
		t.Fatalf("oldest job %s not evicted", ids[0])
	}
	if _, ok := mgr.Job(ids[5]); !ok {
		t.Fatalf("newest job %s evicted", ids[5])
	}
}

// TestManagerCloseCancelsInFlight: Close drains the pool, cancelling
// running and queued jobs instead of waiting minutes for them.
func TestManagerCloseCancelsInFlight(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	running, err := mgr.Submit(wire.JobRequest{Dataset: "slow", Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := mgr.Submit(wire.JobRequest{Dataset: "slow", Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job is actually mining.
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != wire.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	mgr.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v", elapsed)
	}
	if st := running.State(); st != wire.StateCancelled {
		t.Fatalf("running job state after Close: %q", st)
	}
	if st := queued.State(); st != wire.StateCancelled {
		t.Fatalf("queued job state after Close: %q", st)
	}
	if _, err := mgr.Submit(wire.JobRequest{Dataset: "slow", Epsilon: 0.2}); err != service.ErrClosed {
		t.Fatalf("submit after Close: err = %v", err)
	}
	mgr.Close() // idempotent
}

// TestJobWorkersPlumbing: a job's parallel fan-out request is validated,
// defaulted from Config.MineWorkers, capped at GOMAXPROCS, and — the
// pipeline being deterministic — a parallel job returns exactly what a
// serial one does (served from the result cache, since workers is not
// part of the cache key).
func TestJobWorkersPlumbing(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("d", datagen.Nursery().Head(400)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1, MineWorkers: 2})
	defer mgr.Close()

	if _, err := mgr.Submit(wire.JobRequest{Dataset: "d", Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}

	job, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: 0.1, Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Request().Workers; got > runtime.GOMAXPROCS(0) {
		t.Errorf("workers = %d, want capped at GOMAXPROCS", got)
	}
	<-job.Done()
	serial, ok := job.Result()
	if !ok {
		t.Fatalf("parallel job did not finish done: %+v", job.Status())
	}

	defaulted, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := 2
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if got := defaulted.Request().Workers; got != want {
		t.Errorf("defaulted workers = %d, want %d (MineWorkers capped)", got, want)
	}
	<-defaulted.Done()

	// Same dataset and ε as the parallel job, but workers=1: must be a
	// result-cache hit carrying the identical result pointer.
	again, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-again.Done()
	if !again.Status().CacheHit {
		t.Error("workers=1 resubmit missed the result cache")
	}
	res, ok := again.Result()
	if !ok || res != serial {
		t.Error("cached result differs from the parallel job's result")
	}
}

// TestJobStatusReportsMemory: once a job has run, its status carries the
// live memory state of the dataset session it mined against — the
// service-level window onto the PLI cache that -cache-bytes governs.
func TestJobStatusReportsMemory(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("nursery", datagen.Nursery().Head(400)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	job, err := mgr.Submit(wire.JobRequest{Dataset: "nursery", Epsilon: 0.1, Mode: wire.ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != wire.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Memory == nil {
		t.Fatal("status of a run job carries no memory state")
	}
	if st.Memory.PLIEntries == 0 {
		t.Fatalf("memory reports an empty PLI cache after a mine: %+v", st.Memory)
	}
	// An unbudgeted session evicts nothing; occupancy must be visible.
	if st.Memory.BytesLive == 0 || st.Memory.Evictions != 0 {
		t.Fatalf("unexpected memory state %+v", st.Memory)
	}
}

// TestBudgetedRegistrySessions: a registry opened with a memory budget
// passes it to every session — a mined dataset's cache rests within the
// budget and reports evictions through job status.
func TestBudgetedRegistrySessions(t *testing.T) {
	const budget = 64 << 10
	reg := service.NewRegistry(maimon.WithMemoryBudget(budget))
	if _, err := reg.Add("nursery", datagen.Nursery().Head(800)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	job, err := mgr.Submit(wire.JobRequest{Dataset: "nursery", Epsilon: 0.2, Mode: wire.ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-job.Done():
	case <-ctx.Done():
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != wire.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Memory == nil {
		t.Fatal("no memory state on a budgeted session's job")
	}
	if st.Memory.BytesLive > budget {
		t.Fatalf("BytesLive %d over the %d budget at rest", st.Memory.BytesLive, budget)
	}
	if st.Memory.Evictions == 0 {
		t.Fatalf("64KiB budget forced no evictions: %+v", st.Memory)
	}
}

// tinyRegistry registers the 4-row dataset "d" the retention tests mine:
// every job on it finishes in microseconds.
func tinyRegistry(t testing.TB) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	if _, err := reg.AddCSV("d", strings.NewReader("A,B,C\nx,y,z\nx,v,w\nu,y,w\n"), true); err != nil {
		t.Fatal(err)
	}
	return reg
}

// submitWait submits req and waits for the job to reach a terminal state.
func submitWait(t *testing.T, mgr *service.Manager, req wire.JobRequest) *service.Job {
	t.Helper()
	job, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", job.ID())
	}
	return job
}

// waitMining waits until job is running against its dataset's session
// (its status carries live memory state only once the worker has looked
// the session up).
func waitMining(t *testing.T, job *service.Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st := job.Status(); st.State != wire.StateRunning || st.Memory == nil; st = job.Status() {
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s never started mining: %+v", job.ID(), st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultCacheServesRetainedJobs: the result cache is the retained
// jobs. A hit becomes the entry, so its result stays served after the job
// that mined it has left retention; a key whose jobs have all left
// retention misses.
func TestResultCacheServesRetainedJobs(t *testing.T) {
	mgr := service.NewManagerRetaining(tinyRegistry(t), service.Config{Workers: 1}, 3)
	defer mgr.Close()
	req := wire.JobRequest{Dataset: "d", Epsilon: 0}
	first := submitWait(t, mgr, req)
	want, ok := first.Result()
	if !ok {
		t.Fatalf("first job: %+v", first.Status())
	}
	hit := submitWait(t, mgr, req)
	if got, _ := hit.Result(); !hit.Status().CacheHit || got != want {
		t.Fatal("resubmission not served the first job's result")
	}
	for i := 1; i <= 2; i++ {
		submitWait(t, mgr, wire.JobRequest{Dataset: "d", Epsilon: float64(i) * 0.01})
	}
	if _, ok := mgr.Job(first.ID()); ok {
		t.Fatalf("job %s still retained; the test needs it evicted", first.ID())
	}
	again := submitWait(t, mgr, req)
	if got, _ := again.Result(); !again.Status().CacheHit || got != want {
		t.Fatal("result not served once the job that mined it left retention")
	}
	for i := 3; i <= 5; i++ {
		submitWait(t, mgr, wire.JobRequest{Dataset: "d", Epsilon: float64(i) * 0.01})
	}
	if miss := submitWait(t, mgr, req); miss.Status().CacheHit {
		t.Fatal("served a key whose jobs have all left retention")
	}
}

// TestResultCacheBoundedByRetention: the cache never holds more entries
// than there are retained jobs, however the hits and misses interleave.
func TestResultCacheBoundedByRetention(t *testing.T) {
	const retain = 3
	mgr := service.NewManagerRetaining(tinyRegistry(t), service.Config{Workers: 1}, retain)
	defer mgr.Close()
	for i, eps := range []float64{0, 0, 0.01, 0.02, 0, 0.03, 0.04, 0.05, 0.01, 0.06} {
		submitWait(t, mgr, wire.JobRequest{Dataset: "d", Epsilon: eps})
		if n, jobs := mgr.ResultCacheEntries(), len(mgr.Jobs()); n > jobs || n > retain {
			t.Fatalf("after job %d: %d cache entries, %d retained jobs (cap %d)", i, n, jobs, retain)
		}
	}
}

// TestResultCacheServesOnlyCompleteResults: interrupted, cancelled and
// failed jobs leave no entry, and a resubmission of their request mines
// again.
func TestResultCacheServesOnlyCompleteResults(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("slow", slowRelation()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	noEntry := func(what string) {
		t.Helper()
		if n := mgr.ResultCacheEntries(); n != 0 {
			t.Fatalf("%s job left %d cache entries", what, n)
		}
	}

	timed := wire.JobRequest{Dataset: "slow", Epsilon: 0.3, TimeoutMS: 50}
	if res, _ := submitWait(t, mgr, timed).Result(); res == nil || !res.Interrupted {
		t.Fatalf("timed-out job: result %+v, want done and interrupted", res)
	}
	noEntry("interrupted")
	if submitWait(t, mgr, timed).Status().CacheHit {
		t.Fatal("interrupted result served")
	}

	long := wire.JobRequest{Dataset: "slow", Epsilon: 0.3}
	for i := 0; i < 2; i++ {
		job, err := mgr.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status().CacheHit {
			t.Fatal("cancelled result served")
		}
		waitMining(t, job)
		if _, err := mgr.Cancel(job.ID()); err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st := job.State(); st != wire.StateCancelled {
			t.Fatalf("cancelled job ended %q", st)
		}
		noEntry("cancelled")
	}

	// A job queued behind a blocker whose dataset is swapped for an
	// unminable one fails.
	blocker, err := mgr.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.RemoveDataset("d") {
		t.Fatal("remove failed")
	}
	if _, err := reg.AddCSV("d", strings.NewReader("A,B\nx,y\nu,v\n"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	<-victim.Done()
	if st := victim.State(); st != wire.StateFailed {
		t.Fatalf("victim ended %q, want failed", st)
	}
	noEntry("failed")
}

// TestResultCacheLateFinishAfterRemoval: a job still mining when its
// dataset is removed finishes done, and its result is never served to a
// dataset re-registered under the same name.
func TestResultCacheLateFinishAfterRemoval(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.Add("d", slowRelation()); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1})
	defer mgr.Close()
	req := wire.JobRequest{Dataset: "d", Epsilon: 0.2} // mines for about half a second
	job, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitMining(t, job)
	if !mgr.RemoveDataset("d") {
		t.Fatal("remove failed")
	}
	removed := time.Now()
	if _, err := reg.Add("d", plantedRelation(t)); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if res, ok := job.Result(); !ok || res.Interrupted {
		t.Fatalf("job on the removed dataset: %+v, want done and complete", st)
	}
	if !st.FinishedAt.After(removed) {
		t.Fatal("job finished before its dataset was removed; the test needs a slower mine")
	}
	if fresh := submitWait(t, mgr, req); fresh.Status().CacheHit {
		t.Fatal("re-registered dataset served the removed incarnation's result")
	}
}

// TestResultCacheConcurrentSubmits: submits of a few keys from several
// goroutines, against two workers finishing and evicting jobs, all end
// done, a key is always answered with one result, and the cache stays
// within the retained jobs.
func TestResultCacheConcurrentSubmits(t *testing.T) {
	const retain = 4
	mgr := service.NewManagerRetaining(tinyRegistry(t), service.Config{Workers: 2}, retain)
	defer mgr.Close()
	var mu sync.Mutex
	first := make(map[float64]string)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				eps := float64((g+i)%3) * 0.01
				job, err := mgr.Submit(wire.JobRequest{Dataset: "d", Epsilon: eps})
				if err != nil {
					t.Error(err)
					return
				}
				<-job.Done()
				res, ok := job.Result()
				if !ok {
					t.Errorf("job %s: %+v", job.ID(), job.Status())
					return
				}
				got := fmt.Sprint(res.Schemes, res.MVDs)
				mu.Lock()
				if want, seen := first[eps]; seen && want != got {
					t.Errorf("ε = %v answered with two results", eps)
				} else {
					first[eps] = got
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n, jobs := mgr.ResultCacheEntries(), len(mgr.Jobs()); n > jobs || n > retain {
		t.Fatalf("%d cache entries, %d retained jobs (cap %d)", n, jobs, retain)
	}
}
