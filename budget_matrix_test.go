package maimon

import (
	"context"
	"fmt"
	"testing"
)

// TestBudgetPolicyMatrixDeterminism is the full memory-governance
// determinism matrix on the public API: mining output (MVDs, NumMinSeps,
// scheme fingerprints) must be identical across every combination of
// {workers 1, 8} × {unlimited, ⅛ PLI budget, ⅛ entropy-memo budget}.
// Budgets are cost knobs — the mined results may never move, whichever
// partition or memoized entropy gets sacrificed along the way.
func TestBudgetPolicyMatrixDeterminism(t *testing.T) {
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
			out.schemes = append(out.schemes, sc.Schema.String())
		}
		return out
	}

	// Reference: serial, unlimited. Its stats size the squeezes.
	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	want := mine(ref, 1)
	refStats := ref.Stats()
	pliBudget := refStats.PLIStats.BytesLive / 8
	memoBudget := refStats.MemoBytes / 8
	if pliBudget < 1 || memoBudget < 1 {
		t.Fatalf("reference footprint too small to squeeze: pli=%d memo=%d",
			refStats.PLIStats.BytesLive, refStats.MemoBytes)
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

	budgets := []struct {
		name string
		opts []Option
	}{
		{"unlimited", nil},
		{"pli/8", []Option{WithMemoryBudget(pliBudget)}},
		{"memo/8", []Option{WithEntropyBudget(memoBudget)}},
	}
	for _, b := range budgets {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("budget=%s workers=%d", b.name, workers)
			s, err := Open(r, b.opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label, mine(s, workers))
			st := s.Stats()
			switch b.name {
			case "pli/8":
				if st.PLIStats.BytesLive > pliBudget {
					t.Fatalf("%s: BytesLive %d over budget %d at rest", label, st.PLIStats.BytesLive, pliBudget)
				}
				if st.PLIStats.Drops+st.PLIStats.Demotions == 0 {
					t.Fatalf("%s: PLI budget %d forced no evictions", label, pliBudget)
				}
			case "memo/8":
				if st.MemoBytes > memoBudget {
					t.Fatalf("%s: MemoBytes %d over budget %d at rest", label, st.MemoBytes, memoBudget)
				}
				if st.MemoEvictions == 0 {
					t.Fatalf("%s: entropy budget %d forced no evictions", label, memoBudget)
				}
				if workers == 1 {
					// A serial sweep picks its victims deterministically:
					// a second fresh session does exactly the same work.
					again, err := Open(r, b.opts...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					check(label+" (again)", mine(again, workers))
					st2 := again.Stats()
					if st2.HCalls != st.HCalls || st2.HCached != st.HCached ||
						st2.MemoEvictions != st.MemoEvictions || st2.PLIStats.Misses != st.PLIStats.Misses {
						t.Fatalf("%s: a second serial mine counted HCalls %d, HCached %d, MemoEvictions %d, PLI misses %d; the first %d, %d, %d, %d",
							label, st2.HCalls, st2.HCached, st2.MemoEvictions, st2.PLIStats.Misses,
							st.HCalls, st.HCached, st.MemoEvictions, st.PLIStats.Misses)
					}
				}
			}
		}
	}
}
