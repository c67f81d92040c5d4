package maimon

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// TestSessionParallelMatchesSerial pins the public-API determinism
// contract: the same session mined at workers=1 and workers=8 must
// produce identical MVDs, identical NumMinSeps, and an identical scheme
// list, on every seeded test dataset.
func TestSessionParallelMatchesSerial(t *testing.T) {
	planted, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(10, 4, 1), Seed: 23, RootTuples: 10, ExtPerSep: 2, NoiseCells: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*Relation{
		"planted": planted,
		"nursery": Nursery().Head(1200),
	}
	ctx := context.Background()
	for name, r := range rels {
		for _, eps := range []float64{0, 0.1} {
			s, err := Open(r)
			if err != nil {
				t.Fatal(err)
			}
			serialSchemes, serialRes, err := s.MineSchemes(ctx,
				WithEpsilon(eps), WithMaxSchemes(30), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			parSchemes, parRes, err := s.MineSchemes(ctx,
				WithEpsilon(eps), WithMaxSchemes(30), WithWorkers(8))
			if err != nil {
				t.Fatal(err)
			}
			if len(parRes.MVDs) != len(serialRes.MVDs) {
				t.Fatalf("%s eps=%v: %d parallel MVDs vs %d serial", name, eps, len(parRes.MVDs), len(serialRes.MVDs))
			}
			for i := range serialRes.MVDs {
				if !parRes.MVDs[i].Equal(serialRes.MVDs[i]) {
					t.Fatalf("%s eps=%v: MVD %d differs", name, eps, i)
				}
			}
			if parRes.NumMinSeps() != serialRes.NumMinSeps() {
				t.Fatalf("%s eps=%v: NumMinSeps %d vs %d", name, eps, parRes.NumMinSeps(), serialRes.NumMinSeps())
			}
			if len(parSchemes) != len(serialSchemes) {
				t.Fatalf("%s eps=%v: %d parallel schemes vs %d serial", name, eps, len(parSchemes), len(serialSchemes))
			}
			for i := range serialSchemes {
				if !parSchemes[i].Schema.Equal(serialSchemes[i].Schema) {
					t.Fatalf("%s eps=%v: scheme %d differs", name, eps, i)
				}
			}
		}
	}
}

// TestSessionParallelEvictionMatchesSerial is the memory-governance
// determinism contract on the public API: mining output (MVDs,
// NumMinSeps, scheme stream) must be byte-identical across
// {serial, workers=8} × {unlimited budget, a budget tight enough to
// force evictions mid-run}, on the planted and nursery datasets. It also
// pins the budget semantics a warm session lives by: repeated mines
// under a fixed WithMemoryBudget keep BytesLive within the budget at
// rest and accumulate nonzero evictions (Drops + Demotions) in
// Session.Stats().
func TestSessionParallelEvictionMatchesSerial(t *testing.T) {
	planted, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(10, 4, 1), Seed: 23, RootTuples: 10, ExtPerSep: 2, NoiseCells: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*Relation{
		"planted": planted,
		"nursery": Nursery().Head(1200),
	}
	ctx := context.Background()
	eps := 0.1
	type outcome struct {
		schemes []string
		mvds    int
		minseps int
	}
	for name, r := range rels {
		// Reference: serial, unlimited budget. Also learns the footprint
		// the budgeted runs squeeze.
		ref, err := Open(r)
		if err != nil {
			t.Fatal(err)
		}
		mine := func(s *Session, workers int) outcome {
			schemes, res, err := s.MineSchemes(ctx,
				WithEpsilon(eps), WithMaxSchemes(30), WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			out := outcome{mvds: len(res.MVDs), minseps: res.NumMinSeps()}
			for _, sc := range schemes {
				out.schemes = append(out.schemes, sc.Schema.String())
			}
			return out
		}
		want := mine(ref, 1)
		budget := ref.Stats().PLIStats.BytesLive / 8
		if budget < 1 {
			budget = 1
		}

		check := func(label string, got outcome) {
			t.Helper()
			if got.mvds != want.mvds || got.minseps != want.minseps {
				t.Fatalf("%s %s: %d MVDs / %d minseps, want %d / %d",
					name, label, got.mvds, got.minseps, want.mvds, want.minseps)
			}
			if len(got.schemes) != len(want.schemes) {
				t.Fatalf("%s %s: %d schemes, want %d", name, label, len(got.schemes), len(want.schemes))
			}
			for i := range want.schemes {
				if got.schemes[i] != want.schemes[i] {
					t.Fatalf("%s %s: scheme %d differs", name, label, i)
				}
			}
		}
		check(name+" workers=8 unlimited", mine(ref, 8))

		for _, workers := range []int{1, 8} {
			s, err := Open(r, WithMemoryBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			// A warm session mined repeatedly under the fixed budget:
			// bounded occupancy at rest after every round, evictions
			// accumulating, results identical every time.
			for round := 0; round < 2; round++ {
				check(fmt.Sprintf("workers=%d budget=%d round=%d", workers, budget, round), mine(s, workers))
				st := s.Stats()
				if st.PLIStats.BytesLive > budget {
					t.Fatalf("%s workers=%d round=%d: BytesLive %d over budget %d at rest",
						name, workers, round, st.PLIStats.BytesLive, budget)
				}
			}
			if st := s.Stats(); st.PLIStats.Drops+st.PLIStats.Demotions == 0 {
				t.Fatalf("%s workers=%d: budget %d forced no evictions", name, workers, budget)
			}
		}
	}
}

// TestSchemeSeqEarlyBreakWithWorkers is the streaming-surface companion
// of the determinism suite: breaking out of a SchemeSeq whose phase 1 ran
// on the full worker pool must stop cleanly (no leaked workers for -race
// to flag, no extra schemes synthesized after the break).
func TestSchemeSeqEarlyBreakWithWorkers(t *testing.T) {
	r := Nursery().Head(1000)
	s, err := Open(r, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	maxStreamed := 0
	consumed := 0
	for _, err := range s.SchemeSeq(ctx, WithEpsilon(0.3), WithMaxSchemes(25),
		WithProgress(func(p Progress) {
			if p.Schemes > maxStreamed {
				maxStreamed = p.Schemes
			}
		})) {
		if err != nil {
			t.Fatal(err)
		}
		consumed++
		if consumed == 2 {
			break
		}
	}
	if consumed != 2 {
		t.Fatalf("consumed %d schemes, want 2", consumed)
	}
	if maxStreamed > 2 {
		t.Fatalf("miner streamed %d schemes after the consumer broke at 2", maxStreamed)
	}
	// The session stays usable after the break: a fresh serial mine over
	// the now-warm oracle must still succeed.
	if _, _, err := s.MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(5), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
}
