package maimon

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestSessionWarmReuseAcrossEpsilons is the acceptance check of the
// session design: a second mine at a different ε must be answered largely
// from the warm entropy memo — the second mine's Stats delta records
// cache hits — instead of rebuilding the oracle from zero.
func TestSessionWarmReuseAcrossEpsilons(t *testing.T) {
	r := Nursery().Head(1000)
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.MineSchemes(ctx, WithEpsilon(0), WithMaxSchemes(20)); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	if first.HCalls == 0 {
		t.Fatal("first mine did no entropy work")
	}
	if _, _, err := s.MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(20)); err != nil {
		t.Fatal(err)
	}
	second := s.Stats()
	if hits := second.HCached - first.HCached; hits <= 0 {
		t.Fatalf("second mine recorded no warm-memo hits (HCached %d -> %d)", first.HCached, second.HCached)
	}
	// The ε = 0 mine's entropy sets cover much of the ε = 0.1 search, so
	// the fraction of fresh PLI work on the second mine must be small.
	if fresh := second.PLIStats.Misses - first.PLIStats.Misses; fresh > first.PLIStats.Misses {
		t.Fatalf("second mine computed %d fresh partitions vs %d on the cold mine — warm state unused",
			fresh, first.PLIStats.Misses)
	}
}

// A warm session must return exactly what a cold, fresh session returns:
// reuse is an optimization, never a semantic change.
func TestSessionWarmMatchesOneShot(t *testing.T) {
	r := Nursery().Head(800)
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.MineSchemes(ctx, WithEpsilon(0.05), WithMaxSchemes(20)); err != nil {
		t.Fatal(err) // warm the oracle at an unrelated threshold
	}
	warm, warmRes, err := s.MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(20))
	if err != nil {
		t.Fatal(err)
	}
	cold, coldRes, err := mustOpen(t, r).MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) || len(warmRes.MVDs) != len(coldRes.MVDs) {
		t.Fatalf("warm mined %d schemes/%d MVDs, cold %d/%d",
			len(warm), len(warmRes.MVDs), len(cold), len(coldRes.MVDs))
	}
	for i := range warm {
		if !warm[i].Schema.Equal(cold[i].Schema) || warm[i].J != cold[i].J {
			t.Fatalf("scheme %d differs: %v vs %v", i, warm[i].Schema, cold[i].Schema)
		}
	}
}

// Two goroutines mining one session at different thresholds must race
// cleanly (run under -race) and produce exactly the results each would
// have produced alone.
func TestSessionConcurrentMining(t *testing.T) {
	r := Nursery().Head(1000)
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	epsilons := []float64{0, 0.1}
	got := make([][]*Scheme, len(epsilons))
	var wg sync.WaitGroup
	for i, eps := range epsilons {
		wg.Add(1)
		go func(i int, eps float64) {
			defer wg.Done()
			schemes, _, err := s.MineSchemes(ctx, WithEpsilon(eps), WithMaxSchemes(10))
			if err != nil {
				t.Errorf("ε=%v: %v", eps, err)
				return
			}
			got[i] = schemes
		}(i, eps)
	}
	wg.Wait()
	for i, eps := range epsilons {
		fresh, openErr := Open(r)
		if openErr != nil {
			t.Fatal(openErr)
		}
		want, _, err := fresh.MineSchemes(ctx, WithEpsilon(eps), WithMaxSchemes(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("ε=%v: concurrent run mined %d schemes, solo run %d", eps, len(got[i]), len(want))
		}
		for k := range want {
			if !got[i][k].Schema.Equal(want[k].Schema) {
				t.Fatalf("ε=%v: scheme %d differs under concurrency", eps, k)
			}
		}
	}
}

// Breaking out of a SchemeSeq loop must stop the underlying miner at that
// scheme: the progress stream may not advance past the consumed prefix.
func TestSchemeSeqEarlyBreakStopsMiner(t *testing.T) {
	r := Nursery().Head(800)
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := 0
	for _, err := range s.SchemeSeq(ctx, WithEpsilon(0.3), WithMaxSchemes(25)) {
		if err != nil {
			t.Fatal(err)
		}
		total++
	}
	if total < 5 {
		t.Skipf("only %d schemes at ε=0.3; early-break test needs more", total)
	}

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
}

// A cancelled context must terminate a SchemeSeq promptly with
// context.Canceled as its final yield.
func TestSchemeSeqCancelPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	s, err := Open(slowRelation())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var last error
	for _, err := range s.SchemeSeq(ctx, WithEpsilon(0.3)) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("final yield = %v, want context.Canceled", last)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// Progress events must track the pair loop and the MVD count, ending on a
// complete pass (PairsDone == PairsTotal) for an unbounded run.
func TestSessionProgressEvents(t *testing.T) {
	r := paperRelation(t)
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	res, err := s.MineMVDs(context.Background(), WithProgress(func(p Progress) {
		events = append(events, p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Phase != "mvds" || last.PairsDone != last.PairsTotal || last.PairsTotal != 15 {
		t.Fatalf("final event %+v, want completed mvds phase over 15 pairs", last)
	}
	if last.MVDs != len(res.MVDs) {
		t.Fatalf("final event reports %d MVDs, result has %d", last.MVDs, len(res.MVDs))
	}
	prev := -1
	for _, e := range events {
		if e.PairsDone < prev {
			t.Fatalf("PairsDone regressed: %+v", e)
		}
		prev = e.PairsDone
	}
}

// Open-time options are per-call defaults; per-call options override them.
func TestSessionOptionDefaults(t *testing.T) {
	r := paperRelation(t)
	s, err := Open(r, WithEpsilon(0.3), WithMaxSchemes(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	schemes, _, err := s.MineSchemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) != 1 {
		t.Fatalf("default MaxSchemes=1 ignored: got %d schemes", len(schemes))
	}
	more, _, err := s.MineSchemes(ctx, WithMaxSchemes(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) <= 1 {
		t.Fatalf("per-call override mined %d schemes, want > 1", len(more))
	}
}

// A session opened without WithMaxSchemes stops after DefaultMaxSchemes
// schemes. On the 13-column ladder relation at ε 0.1 the uncapped
// enumeration runs for minutes; the loop breaks one past the cap, so a
// missing default fails fast.
func TestSessionDefaultSchemeCap(t *testing.T) {
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range mustOpen(t, r).SchemeSeq(context.Background(), WithEpsilon(0.1)) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n > DefaultMaxSchemes {
			break
		}
	}
	if n != DefaultMaxSchemes {
		t.Fatalf("default cap: %d schemes yielded, want %d", n, DefaultMaxSchemes)
	}
}

func TestOpenRejectsNilRelation(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Fatal("Open(nil) accepted")
	}
}

func TestSessionArityValidation(t *testing.T) {
	r, err := FromRows([]string{"A", "B"}, [][]string{{"x", "y"}, {"u", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.MineMVDs(ctx); err == nil {
		t.Fatal("2-column relation accepted by MineMVDs")
	}
	if _, _, err := s.MineSchemes(ctx); err == nil {
		t.Fatal("2-column relation accepted by MineSchemes")
	}
	var last error
	for _, err := range s.SchemeSeq(ctx) {
		last = err
	}
	if last == nil {
		t.Fatal("2-column relation accepted by SchemeSeq")
	}
}
