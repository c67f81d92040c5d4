package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/wire"
)

// runSpillJob registers nursery on a spill-enabled registry, mines it,
// and returns the finished job's status.
func runSpillJob(t *testing.T, reg *Registry) wire.JobStatus {
	t.Helper()
	if _, err := reg.Add("nursery", datagen.Nursery().Head(800)); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(reg, Config{Workers: 1})
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
		t.Fatal("no memory state on the job")
	}
	return st
}

// TestSpillRegistrySessions: a registry pointed at a spill root gives
// each session a per-dataset spill directory; a tightly budgeted mine
// demotes partitions there and JobStatus.memory reports the tier, and
// after CloseAll the segments a restart opens warm are on disk.
func TestSpillRegistrySessions(t *testing.T) {
	root := t.TempDir()
	reg := NewRegistry(maimon.WithMemoryBudget(64 << 10))
	reg.SetSpill(root, 0)
	st := runSpillJob(t, reg)
	if st.Memory.SpillDemotions == 0 {
		t.Fatalf("64KiB budget with a spill root demoted nothing: %+v", st.Memory)
	}
	if st.Memory.SpillBytes == 0 {
		t.Fatalf("demotions with no on-disk bytes: %+v", st.Memory)
	}
	if st.Memory.Evictions < st.Memory.SpillDemotions {
		t.Fatalf("Evictions %d below SpillDemotions %d — the sum contract broke",
			st.Memory.Evictions, st.Memory.SpillDemotions)
	}
	dir := reg.spillDirFor("nursery")
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("per-dataset spill dir %s missing: %v", dir, err)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatalf("CloseAll: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "spill-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("CloseAll left no spill segment in %s", dir)
	}

	// A fresh registry over the same root and dataset starts warm: the
	// re-mine promotes from the previous incarnation's segments.
	reg2 := NewRegistry(maimon.WithMemoryBudget(64 << 10))
	reg2.SetSpill(root, 0)
	st2 := runSpillJob(t, reg2)
	if st2.Memory.SpillHits == 0 {
		t.Fatalf("restarted registry promoted nothing from the warm spill dir: %+v", st2.Memory)
	}
	reg2.CloseAll()
}

// TestSpillDirPerDataset: distinct dataset names must never share a
// spill directory, even when they sanitize to the same prefix.
func TestSpillDirPerDataset(t *testing.T) {
	reg := NewRegistry()
	reg.SetSpill("/tmp/spill-root", 0)
	a := reg.spillDirFor("data/set")
	b := reg.spillDirFor("data.set")
	if a == b {
		t.Fatalf("dataset names %q and %q map to the same spill dir %s", "data/set", "data.set", a)
	}
}

// TestAddSameNameRace: of many Adds racing for one name under a spill
// root, exactly one registers it and opens a session — over the name's
// spill directory; every other fails with ErrDatasetExists without
// opening one. A failed open releases the name.
func TestAddSameNameRace(t *testing.T) {
	const n = 8
	reg := NewRegistry()
	reg.SetSpill(t.TempDir(), 0)
	var opens atomic.Int32
	reg.open = func(r *relation.Relation, opts ...maimon.Option) (*maimon.Session, error) {
		opens.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the race window open
		return maimon.Open(r, opts...)
	}
	r := datagen.Nursery().Head(200)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = reg.Add("d", r)
		}()
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrDatasetExists):
			t.Fatalf("losing Add: %v, want ErrDatasetExists", err)
		}
	}
	if won != 1 || opens.Load() != 1 {
		t.Fatalf("%d Adds won and %d sessions opened, want 1 and 1", won, opens.Load())
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d datasets, want 1", reg.Len())
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatal(err)
	}

	reg.open = func(*relation.Relation, ...maimon.Option) (*maimon.Session, error) {
		return nil, errors.New("open failed")
	}
	if _, err := reg.Add("e", r); err == nil || errors.Is(err, ErrDatasetExists) {
		t.Fatalf("Add over a failing open: %v", err)
	}
	if _, ok := reg.Info("e"); ok || reg.Len() != 1 {
		t.Fatal("a failed open left the name registered")
	}
	reg.open = maimon.Open
	if _, err := reg.Add("e", r); err != nil {
		t.Fatalf("Add after a failed open of the same name: %v", err)
	}
	reg.CloseAll()
}
