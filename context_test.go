package maimon

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datagen"
)

// slowRelation is a wide uniform-random relation on which MVD mining runs
// for minutes uncancelled (every subset separates, so the full-MVD lattice
// search explodes) — the workload the cancellation tests interrupt.
func slowRelation() *Relation { return datagen.Uniform(200, 12, 3, 7) }

func TestContextCancelStopsMining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := mustOpen(t, slowRelation()).MineMVDs(ctx, WithEpsilon(0.3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

func TestContextCancelStopsSchemeEnumeration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, res, err := mustOpen(t, slowRelation()).MineSchemes(ctx, WithEpsilon(0.3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := mustOpen(t, slowRelation()).MineMVDs(ctx, WithEpsilon(0.3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.MVDs) != 0 {
		t.Fatalf("pre-cancelled run mined %d MVDs", len(res.MVDs))
	}
}

// A context deadline that fires mid-mine surfaces as ErrInterrupted, not
// as the context's DeadlineExceeded, with the results mined so far: the
// caller's context is the one deadline a mine has.
func TestContextDeadlineMapsToErrInterrupted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := mustOpen(t, slowRelation()).MineMVDs(ctx, WithEpsilon(0.3))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

// SchemeSeq surfaces a deadline as a final ErrInterrupted yield, matching
// the batch entry points.
func TestSchemeSeqTimeoutYieldsErrInterrupted(t *testing.T) {
	s, err := Open(slowRelation())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var last error
	for _, err := range s.SchemeSeq(ctx, WithEpsilon(0.3)) {
		last = err
	}
	if !errors.Is(last, ErrInterrupted) {
		t.Fatalf("final yield = %v, want ErrInterrupted", last)
	}
}

// Completed runs are identical with and without a generous context — the
// plumbing must not perturb mining results.
func TestContextDoesNotChangeResults(t *testing.T) {
	r := Nursery().Head(800)
	sync, resSync, err := mustOpen(t, r).MineSchemes(context.Background(), WithEpsilon(0.1), WithMaxSchemes(20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	viaCtx, resCtx, err := mustOpen(t, r).MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(sync) != len(viaCtx) || len(resSync.MVDs) != len(resCtx.MVDs) {
		t.Fatalf("sync mined %d schemes/%d MVDs, ctx mined %d/%d",
			len(sync), len(resSync.MVDs), len(viaCtx), len(resCtx.MVDs))
	}
	for i := range sync {
		if sync[i].Schema.Fingerprint() != viaCtx[i].Schema.Fingerprint() || sync[i].J != viaCtx[i].J {
			t.Fatalf("scheme %d differs: %v vs %v", i, sync[i].Schema, viaCtx[i].Schema)
		}
	}
}
