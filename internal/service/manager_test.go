package service_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/service"
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
	for _, req := range []service.JobRequest{
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
	mgr := service.NewManager(reg, service.Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	defer mgr.Close()
	job, err := mgr.Submit(service.JobRequest{Dataset: "d"})
	if err != nil {
		t.Fatal(err)
	}
	req := job.Request()
	if req.Mode != service.ModeSchemes {
		t.Errorf("default mode = %q", req.Mode)
	}
	if req.MaxSchemes != service.DefaultMaxSchemes {
		t.Errorf("default max_schemes = %d", req.MaxSchemes)
	}
	if req.TimeoutMS != (30 * time.Second).Milliseconds() {
		t.Errorf("default timeout_ms = %d", req.TimeoutMS)
	}
	<-job.Done()
}

// TestJobRetentionBound: beyond MaxJobs records, the oldest finished
// jobs are evicted so a resident daemon's memory stays bounded.
func TestJobRetentionBound(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.AddCSV("d", strings.NewReader("A,B,C\nx,y,z\nx,v,w\nu,y,w\n"), true); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1, MaxJobs: 3})
	defer mgr.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		// Distinct epsilons defeat the cache so every job really runs.
		job, err := mgr.Submit(service.JobRequest{Dataset: "d", Epsilon: float64(i) * 0.01})
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
	running, err := mgr.Submit(service.JobRequest{Dataset: "slow", Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := mgr.Submit(service.JobRequest{Dataset: "slow", Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job is actually mining.
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != service.StateRunning {
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
	if st := running.State(); st != service.StateCancelled {
		t.Fatalf("running job state after Close: %q", st)
	}
	if st := queued.State(); st != service.StateCancelled {
		t.Fatalf("queued job state after Close: %q", st)
	}
	if _, err := mgr.Submit(service.JobRequest{Dataset: "slow", Epsilon: 0.2}); err != service.ErrClosed {
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

	if _, err := mgr.Submit(service.JobRequest{Dataset: "d", Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}

	job, err := mgr.Submit(service.JobRequest{Dataset: "d", Epsilon: 0.1, Workers: 1 << 20})
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

	defaulted, err := mgr.Submit(service.JobRequest{Dataset: "d", Epsilon: 0.2})
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
	again, err := mgr.Submit(service.JobRequest{Dataset: "d", Epsilon: 0.1, Workers: 1})
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
