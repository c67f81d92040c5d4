package maimon

import (
	"context"
	"fmt"
	"testing"
)

// TestSpillMatrixDeterminism is the spill tier's determinism matrix on
// the public API: mining output (MVDs, NumMinSeps, scheme fingerprints)
// must be byte-identical across {spill on, off} × {workers 1, 8} under a
// tight PLI budget. The spill tier is a pure cost trade on the miss path —
// whether an evicted partition is recomputed or promoted back from disk
// may never change what is mined. Run under -race this also covers
// demote/promote against concurrent worker miners.
func TestSpillMatrixDeterminism(t *testing.T) {
	r := Nursery().Head(1200)
	ctx := context.Background()
	const eps = 0.1

	type outcome struct {
		schemes []string
		mvds    int
		minseps int
	}
	mine := func(s *Session, workers int) outcome {
		schemes, res, err := s.MineSchemes(ctx,
			WithEpsilon(eps), WithMaxSchemes(30), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{mvds: len(res.MVDs), minseps: res.NumMinSeps()}
		for _, sc := range schemes {
			out.schemes = append(out.schemes, sc.Schema.Fingerprint())
		}
		return out
	}

	// Reference: serial, unlimited, no spill. Its footprint sizes the squeeze.
	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	want := mine(ref, 1)
	budget := ref.Stats().PLIStats.BytesLive / 8
	if budget < 1 {
		t.Fatalf("reference footprint too small to squeeze: %+v", ref.Stats().PLIStats)
	}

	check := func(label string, got outcome) {
		t.Helper()
		if got.mvds != want.mvds || got.minseps != want.minseps {
			t.Fatalf("%s: %d MVDs / %d minseps, want %d / %d",
				label, got.mvds, got.minseps, want.mvds, want.minseps)
		}
		if len(got.schemes) != len(want.schemes) {
			t.Fatalf("%s: %d schemes, want %d", label, len(got.schemes), len(want.schemes))
		}
		for i := range want.schemes {
			if got.schemes[i] != want.schemes[i] {
				t.Fatalf("%s: scheme %d differs", label, i)
			}
		}
	}

	for _, spill := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("spill=%v workers=%d", spill, workers)
			opts := []Option{WithMemoryBudget(budget)}
			if spill {
				opts = append(opts, WithSpillDir(t.TempDir()))
			}
			s, err := Open(r, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label, mine(s, workers))
			st := s.Stats().PLIStats
			if !spill && (st.Demotions != 0 || st.SpillHits != 0) {
				t.Fatalf("%s: spill counters moved with spill off: %+v", label, st)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestSpillSessionWarmRestart is the maimond restart path on the public
// API: a spilling session is closed (syncing its spill segments), a new
// session opens over the same directory, and the re-mine both promotes
// from the previous session's segments and still produces identical
// output.
func TestSpillSessionWarmRestart(t *testing.T) {
	r := Nursery().Head(1200)
	ctx := context.Background()
	dir := t.TempDir()

	mine := func(s *Session) (int, int) {
		res, err := s.MineMVDs(ctx, WithEpsilon(0.1))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.MVDs), res.NumMinSeps()
	}

	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	wantMVDs, wantSeps := mine(ref)
	budget := ref.Stats().PLIStats.BytesLive / 8

	open := func() *Session {
		s, err := Open(r, WithMemoryBudget(budget), WithSpillDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := open()
	if got, seps := mine(s1); got != wantMVDs || seps != wantSeps {
		t.Fatalf("first spilling mine: %d MVDs / %d minseps, want %d / %d", got, seps, wantMVDs, wantSeps)
	}
	if s1.Stats().PLIStats.Demotions == 0 {
		t.Fatalf("⅛ budget demoted nothing: %+v", s1.Stats().PLIStats)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := open()
	defer s2.Close()
	if got, seps := mine(s2); got != wantMVDs || seps != wantSeps {
		t.Fatalf("post-restart mine: %d MVDs / %d minseps, want %d / %d", got, seps, wantMVDs, wantSeps)
	}
	if st := s2.Stats().PLIStats; st.SpillHits == 0 {
		t.Fatalf("restarted session promoted nothing from the warm spill dir: %+v", st)
	}
}
