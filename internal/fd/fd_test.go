package fd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/relation"
)

func abcR() *relation.Relation {
	// B = f(A); C independent-ish.
	return relation.MustFromRows(
		[]string{"A", "B", "C"},
		[][]string{
			{"a1", "b1", "c1"},
			{"a1", "b1", "c2"},
			{"a2", "b2", "c1"},
			{"a2", "b2", "c2"},
			{"a3", "b1", "c1"},
		},
	)
}

func TestExactFDMining(t *testing.T) {
	m := NewMiner(abcR())
	res := m.Mine()
	// A→B must be found as a minimal FD.
	found := false
	for _, f := range res.FDs {
		if f.LHS == bitset.Single(0) && f.RHS == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("A→B not found; FDs: %v", res.FDs)
	}
	// B→A does not hold (b1 maps to a1 and a3).
	for _, f := range res.FDs {
		if f.LHS == bitset.Single(1) && f.RHS == 0 {
			t.Fatal("B→A incorrectly mined")
		}
	}
}

func TestMinimalityPruning(t *testing.T) {
	m := NewMiner(abcR())
	res := m.Mine()
	for _, f := range res.FDs {
		// No other mined FD with the same RHS may have a proper-subset LHS.
		for _, g := range res.FDs {
			if f.RHS == g.RHS && g.LHS.ProperSubsetOf(f.LHS) {
				t.Fatalf("non-minimal FD %v (subset %v)", f, g)
			}
		}
	}
}

func TestUCCMining(t *testing.T) {
	m := NewMiner(abcR())
	res := m.Mine()
	// AC is a key (all rows distinct on A,C); A alone and C alone are not.
	want := bitset.Of(0, 2)
	foundWant := false
	for _, u := range res.UCCs {
		if u == want {
			foundWant = true
		}
		if u == bitset.Single(0) || u == bitset.Single(2) {
			t.Fatalf("non-unique column mined as UCC: %v", u)
		}
	}
	if !foundWant {
		t.Fatalf("AC not mined as UCC; got %v", res.UCCs)
	}
}

func TestG3MatchesDefinition(t *testing.T) {
	// One violating row out of five: g3(A→B) with a single dirty cell.
	r := relation.MustFromRows(
		[]string{"A", "B"},
		[][]string{
			{"a1", "b1"}, {"a1", "b1"}, {"a1", "b2"}, {"a2", "b3"}, {"a2", "b3"},
		},
	)
	m := NewMiner(r)
	got := m.Error(bitset.Single(0), 1)
	if math.Abs(got-0.2) > 1e-12 { // remove 1 of 5 rows
		t.Fatalf("g3 = %v, want 0.2", got)
	}
	// Exact mining rejects it.
	for _, f := range m.Mine().FDs {
		if f.LHS == bitset.Single(0) && f.RHS == 1 {
			t.Fatalf("A→B mined with g3 = %v", got)
		}
	}
}

func TestFunctionalChainRecovered(t *testing.T) {
	r := datagen.FunctionalChain(400, 4, 5, 0, 3)
	m := NewMiner(r)
	res := m.Mine()
	for j := 0; j+1 < 4; j++ {
		found := false
		for _, f := range res.FDs {
			if f.RHS == j+1 && f.LHS.SubsetOf(bitset.Single(j)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("chain FD col%d→col%d not recovered", j, j+1)
		}
	}
}

// naiveMinimalFDs computes minimal exact FDs by brute force.
func naiveMinimalFDs(r *relation.Relation) []FD {
	o := entropy.New(r)
	n := r.NumCols()
	var holds []FD
	bitset.Full(n).Subsets(func(lhs bitset.AttrSet) bool {
		for a := 0; a < n; a++ {
			if lhs.Contains(a) {
				continue
			}
			if o.CondH(bitset.Single(a), lhs) <= 1e-9 {
				holds = append(holds, FD{LHS: lhs, RHS: a})
			}
		}
		return true
	})
	var out []FD
	for _, f := range holds {
		minimal := true
		for _, g := range holds {
			if g.RHS == f.RHS && g.LHS.ProperSubsetOf(f.LHS) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, f)
		}
	}
	sortFDs(out)
	return out
}

func TestQuickExactFDsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		r := datagen.FunctionalChain(30+rng.Intn(40), 4+rng.Intn(2), 3, 0.2, rng.Int63())
		m := NewMiner(r)
		got := m.Mine().FDs
		want := naiveMinimalFDs(r)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i].LHS != want[i].LHS || got[i].RHS != want[i].RHS {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestToMVD(t *testing.T) {
	f := FD{LHS: bitset.Single(0), RHS: 1}
	m, ok := ToMVD(f, 4)
	if !ok {
		t.Fatal("lift failed")
	}
	if m.Key != bitset.Single(0) || m.M() != 2 {
		t.Fatalf("lifted MVD %v", m)
	}
	// FD covering everything cannot lift.
	if _, ok := ToMVD(FD{LHS: bitset.Of(0, 1, 2), RHS: 3}, 4); ok {
		t.Fatal("full-cover FD lifted")
	}
}

func TestExactFDsLiftToExactMVDs(t *testing.T) {
	// Cross-check with the information-theoretic machinery: every exact
	// minimal FD lifts to an MVD with J = 0.
	r := abcR()
	m := NewMiner(r)
	res := m.Mine()
	o := entropy.New(r)
	for _, f := range res.FDs {
		lifted, ok := ToMVD(f, r.NumCols())
		if !ok {
			continue
		}
		if j := info.JMVD(o, lifted); j > 1e-9 {
			t.Fatalf("FD %v lifts to MVD %v with J = %v", f, lifted, j)
		}
	}
}

func TestSummaryRenders(t *testing.T) {
	m := NewMiner(abcR())
	res := m.Mine()
	s := res.Summary([]string{"A", "B", "C"})
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}
