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

// A context deadline that fires mid-mine surfaces as the context's own
// context.DeadlineExceeded, unwrapped, with the results mined so far: the
// caller's context is the one deadline a mine has.
func TestContextDeadlineMapsToErrInterrupted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := mustOpen(t, slowRelation()).MineMVDs(ctx, WithEpsilon(0.3))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

// SchemeSeq surfaces a deadline that fires mid-mine as a final
// context.DeadlineExceeded yield, matching the batch entry points.
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
	if last != context.DeadlineExceeded {
		t.Fatalf("final yield = %v, want context.DeadlineExceeded", last)
	}
}

// Every way into a mine stops under the context's own error: an expired
// deadline as context.DeadlineExceeded, a cancellation as
// context.Canceled, never renamed or wrapped.
func TestEveryEntryPointStopsUnderContextError(t *testing.T) {
	s := mustOpen(t, Nursery().Head(500))
	schemes, res, err := s.MineSchemes(context.Background(), WithEpsilon(0.3), WithMaxSchemes(1))
	if err != nil || len(schemes) == 0 {
		t.Fatalf("setup mine: %d schemes, err %v", len(schemes), err)
	}
	entries := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"MineMVDs", func(ctx context.Context) error {
			_, err := s.MineMVDs(ctx, WithEpsilon(0.1))
			return err
		}},
		{"MineMinSeps", func(ctx context.Context) error {
			_, err := s.MineMinSeps(ctx, WithEpsilon(0.1))
			return err
		}},
		{"MinePairMVDs", func(ctx context.Context) error {
			_, err := s.MinePairMVDs(ctx, [][2]int{{0, 1}, {2, 3}}, WithEpsilon(0.1))
			return err
		}},
		{"MineSchemes", func(ctx context.Context) error {
			_, _, err := s.MineSchemes(ctx, WithEpsilon(0.1))
			return err
		}},
		{"SchemesFromMVDs", func(ctx context.Context) error {
			_, err := s.SchemesFromMVDs(ctx, res.MVDs, WithEpsilon(0.3))
			return err
		}},
		{"SchemeSeq", func(ctx context.Context) error {
			var last error
			for _, err := range s.SchemeSeq(ctx, WithEpsilon(0.1)) {
				last = err
			}
			return last
		}},
		{"AnalyzeAll", func(ctx context.Context) error {
			_, errs := s.AnalyzeAll(ctx, []Schema{schemes[0].Schema})
			return errs[0]
		}},
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range entries {
		if err := e.run(expired); err != context.DeadlineExceeded {
			t.Errorf("%s, expired deadline: err = %v, want context.DeadlineExceeded", e.name, err)
		}
		if err := e.run(cancelled); err != context.Canceled {
			t.Errorf("%s, cancelled: err = %v, want context.Canceled", e.name, err)
		}
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
