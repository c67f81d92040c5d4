package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/schema"
)

func paperR() *relation.Relation {
	return relation.MustFromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		},
	)
}

func paperRWithRedTuple() *relation.Relation {
	return relation.MustFromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
			{"a1", "b2", "c1", "d2", "e2", "f1"},
		},
	)
}

func at(t *testing.T, s string) bitset.AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newMiner(r *relation.Relation, eps float64) *Miner {
	return NewMiner(entropy.New(r), DefaultOptions(eps))
}

func randomRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	data := make([][]relation.Code, cols)
	names := make([]string, cols)
	for j := range data {
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(rng.Intn(domain))
		}
		data[j] = col
		names[j] = string(rune('A' + j))
	}
	r, err := relation.FromCodes(names, data)
	if err != nil {
		panic(err)
	}
	return r
}

func sameSets(a, b []bitset.AttrSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGetFullMVDsOutputsHold(t *testing.T) {
	m := newMiner(paperR(), 0)
	got := m.GetFullMVDs(at(t, "BD"), 4, 0) // key BD, separate E from A
	if len(got) == 0 {
		t.Fatal("no full MVDs with key BD separating E,A")
	}
	for _, phi := range got {
		if j := info.JMVD(m.Oracle(), phi); j > 1e-12 {
			t.Fatalf("mined MVD %v has J = %v > 0", phi, j)
		}
		if !phi.Separates(4, 0) {
			t.Fatalf("mined MVD %v does not separate E,A", phi)
		}
		if phi.Key != at(t, "BD") {
			t.Fatalf("wrong key in %v", phi)
		}
	}
}

func TestGetFullMVDsMatchesBruteForce(t *testing.T) {
	for _, eps := range []float64{0, 0.3, 0.8} {
		for _, rel := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
			m := newMiner(rel, eps)
			nv := entropy.New(rel)
			for _, keySpec := range []string{"BD", "AD", "A", "∅", "CD"} {
				key := at(t, keySpec)
				a, b := 4, 5 // E, F
				if key.Contains(a) || key.Contains(b) {
					continue
				}
				got := m.GetFullMVDs(key, a, b)
				want := naive.FullMVDs(nv, key, a, b, eps)
				if len(got) != len(want) {
					t.Fatalf("eps=%v key=%v: got %v, want %v", eps, key, got, want)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("eps=%v key=%v: got %v, want %v", eps, key, got, want)
					}
				}
			}
		}
	}
}

// TestGetFullMVDsPanicsOnBadPair: a separator containing the pair panics
// before the key memo is asked for its root, so no root or slot exists.
func TestGetFullMVDsPanicsOnBadPair(t *testing.T) {
	m := newMiner(paperR(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when separator contains the pair")
		}
		if roots := keyRoots(m.keys); len(roots) != 0 {
			t.Fatalf("the key memo was consulted: %d roots installed", len(roots))
		}
	}()
	m.GetFullMVDs(at(t, "AE"), 4, 5)
}

func TestPairwiseConsistencyOptimizationPreservesOutput(t *testing.T) {
	// The App. 12.3 pruning must not change results, only work.
	for _, eps := range []float64{0, 0.25, 0.6} {
		for _, rel := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
			withOpt := NewMiner(entropy.New(rel), Options{Epsilon: eps, PairwiseConsistency: true})
			without := NewMiner(entropy.New(rel), Options{Epsilon: eps, PairwiseConsistency: false})
			for _, keySpec := range []string{"BD", "A", "∅"} {
				key := at(t, keySpec)
				got := withOpt.GetFullMVDs(key, 4, 5)
				want := without.GetFullMVDs(key, 4, 5)
				if len(got) != len(want) {
					t.Fatalf("eps=%v key=%v: opt %v vs plain %v", eps, key, got, want)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("eps=%v key=%v: opt %v vs plain %v", eps, key, got, want)
					}
				}
			}
		}
	}
}

func TestReduceMinSepProducesMinimal(t *testing.T) {
	m := newMiner(paperR(), 0)
	nv := entropy.New(paperR())
	a, b := 4, 5 // E,F
	universe := bitset.Full(6).Remove(a).Remove(b)
	if !naive.Separates(nv, universe, a, b, 0) {
		t.Skip("pair not separable")
	}
	s := m.ReduceMinSep(universe, a, b)
	if !naive.Separates(nv, s, a, b, 0) {
		t.Fatalf("reduced set %v does not separate", s)
	}
	// Minimality: no single removal still separates.
	s.ForEach(func(i int) bool {
		if naive.Separates(nv, s.Remove(i), a, b, 0) {
			t.Fatalf("%v is not minimal: %v still separates", s, s.Remove(i))
		}
		return true
	})
}

func TestMineMinSepsMatchesBruteForceAllPairs(t *testing.T) {
	for _, eps := range []float64{0, 0.3} {
		for _, rel := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
			m := newMiner(rel, eps)
			nv := entropy.New(rel)
			n := rel.NumCols()
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					got := m.MineMinSeps(a, b)
					want := naive.MinSeps(nv, a, b, eps)
					if !sameSets(got, want) {
						t.Fatalf("eps=%v pair (%s,%s): got %v, want %v",
							eps, rel.Name(a), rel.Name(b), got, want)
					}
				}
			}
		}
	}
}

func TestMineMinSepsEmptySeparator(t *testing.T) {
	// Two independent columns: ∅ separates them.
	r := relation.MustFromRows([]string{"A", "B"}, [][]string{
		{"0", "0"}, {"0", "1"}, {"1", "0"}, {"1", "1"},
	})
	m := newMiner(r, 0)
	seps := m.MineMinSeps(0, 1)
	if len(seps) != 1 || !seps[0].IsEmpty() {
		t.Fatalf("expected {∅}, got %v", seps)
	}
}

func TestMineMinSepsNoSeparator(t *testing.T) {
	// Perfectly correlated columns cannot be separated at ε = 0... unless
	// conditioning removes all entropy. Build A,B dependent given nothing
	// and n = 2 so the only candidate key is ∅.
	r := relation.MustFromRows([]string{"A", "B"}, [][]string{
		{"0", "0"}, {"1", "1"}, {"0", "0"}, {"1", "1"}, {"0", "1"},
	})
	m := newMiner(r, 0)
	if seps := m.MineMinSeps(0, 1); len(seps) != 0 {
		t.Fatalf("expected none, got %v", seps)
	}
}

func TestMVDMinerRunningExample(t *testing.T) {
	m := newMiner(paperR(), 0)
	res, err := m.MineMVDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MVDs) == 0 {
		t.Fatal("no MVDs mined")
	}
	// Every mined MVD holds exactly.
	for _, phi := range res.MVDs {
		if j := info.JMVD(m.Oracle(), phi); j > 1e-12 {
			t.Fatalf("mined %v with J = %v", phi, j)
		}
	}
	// The three support separators must appear among minimal separators.
	sepSet := map[bitset.AttrSet]bool{}
	for _, s := range res.Separators() {
		sepSet[s] = true
	}
	for _, want := range []string{"A", "AD", "BD"} {
		if !sepSet[at(t, want)] {
			t.Errorf("missing separator %s in %v", want, res.Separators())
		}
	}
}

func TestMVDMinerDerivesSupportMVDs(t *testing.T) {
	// Thm. 5.7 consequence at ε = 0: each support MVD must be implied by
	// Mε. We check the concrete form: some mined MVD with the same key
	// refines it.
	m := newMiner(paperR(), 0)
	res, _ := m.MineMVDs()
	for _, spec := range []string{"BD->E|ACF", "AD->CF|BE", "A->F|BCDE"} {
		want, err := mvd.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, phi := range res.MVDs {
			if phi.Key == want.Key && phi.Refines(want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no mined MVD refines %v; mined: %v", want, res.MVDs)
		}
	}
}

func TestMVDMinerRedTupleApproximation(t *testing.T) {
	// With the red tuple, BD ↠ E|ACF has J ≈ 0.151 bits: broken at ε = 0,
	// admissible at ε = 0.2.
	r := paperRWithRedTuple()
	m0 := newMiner(r, 0)
	phi, err := mvd.Parse("BD->E|ACF")
	if err != nil {
		t.Fatal(err)
	}
	j := info.JMVD(m0.Oracle(), phi)
	if j < 0.1 || j > 0.2 {
		t.Fatalf("J(BD↠E|ACF) = %v, expected ≈ 0.151", j)
	}
	// At ε = 0 every mined MVD holds exactly.
	res0, _ := m0.MineMVDs()
	for _, mv := range res0.MVDs {
		if jj := info.JMVD(m0.Oracle(), mv); jj > 1e-9 {
			t.Fatalf("mined %v with J = %v at ε=0", mv, jj)
		}
	}
	// At ε = 0.2, BD separates E,A (not necessarily minimally), so some
	// subset of BD must appear among the minimal (E,A)-separators.
	m2 := newMiner(r, 0.2)
	seps := m2.MineMinSeps(4, 0) // pair (E, A)
	ok := false
	for _, s := range seps {
		if s.SubsetOf(at(t, "BD")) {
			ok = true
		}
	}
	if !ok {
		t.Errorf("no subset of BD among minimal (E,A)-separators at ε=0.2: %v", seps)
	}
	// And all mined MVDs hold at 0.2.
	res2, _ := m2.MineMVDs()
	for _, mv := range res2.MVDs {
		if jj := info.JMVD(m2.Oracle(), mv); jj > 0.2+1e-9 {
			t.Fatalf("mined %v with J = %v at ε=0.2", mv, jj)
		}
	}
}

func TestCompatibilityOnPaperSupport(t *testing.T) {
	// Thm. 7.2: the support of the Fig. 2 join tree is pairwise compatible.
	var support []mvd.MVD
	for _, spec := range []string{"BD->E|ACF", "AD->CF|BE", "A->F|BCDE"} {
		phi, err := mvd.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		support = append(support, phi)
	}
	for i := range support {
		for j := i + 1; j < len(support); j++ {
			if !Compatible(support[i], support[j]) {
				t.Errorf("%v and %v should be compatible", support[i], support[j])
			}
		}
	}
}

func TestCompatibilityIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 5 + rng.Intn(3)
		mk := func() mvd.MVD {
			for {
				key := bitset.AttrSet(rng.Int63()) & bitset.Full(n)
				if key.Len() > n-2 {
					continue
				}
				m, err := mvd.Singletons(key, n)
				if err != nil {
					continue
				}
				for m.M() > 2 && rng.Intn(2) == 0 {
					i, j := rng.Intn(m.M()), rng.Intn(m.M())
					if i != j {
						m = m.Merge(i, j)
					}
				}
				return m
			}
		}
		p, q := mk(), mk()
		if Compatible(p, q) != Compatible(q, p) {
			t.Fatalf("compatibility not symmetric for %v, %v", p, q)
		}
	}
}

func TestBuildAcyclicSchemaPaper(t *testing.T) {
	var q []mvd.MVD
	for _, spec := range []string{"BD->E|ACF", "AD->CF|BE", "A->F|BCDE"} {
		phi, err := mvd.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		q = append(q, phi)
	}
	got, err := BuildAcyclicSchema(bitset.Full(6), q)
	if err != nil {
		t.Fatal(err)
	}
	want := schema.MustNew(at(t, "ABD"), at(t, "ACD"), at(t, "BDE"), at(t, "AF"))
	if !got.Equal(want) {
		t.Fatalf("BuildAcyclicSchema = %v, want %v", got, want)
	}
}

func TestBuildAcyclicSchemaSkipsRedundant(t *testing.T) {
	// An MVD whose dependents collapse inside the containing relation is
	// skipped (Fig. 9 line 7).
	phi := mvd.MustNew(at(t, "A"), at(t, "F"), at(t, "BCDE"))
	// After applying phi, the same MVD again is redundant.
	got, err := BuildAcyclicSchema(bitset.Full(6), []mvd.MVD{phi, phi})
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 2 {
		t.Fatalf("M = %d, want 2", got.M())
	}
}

func TestBuildAcyclicSchemaMultiDependent(t *testing.T) {
	phi := mvd.MustNew(at(t, "A"), at(t, "B"), at(t, "C"), at(t, "D"))
	got, err := BuildAcyclicSchema(bitset.Full(4), []mvd.MVD{phi})
	if err != nil {
		t.Fatal(err)
	}
	want := schema.MustNew(at(t, "AB"), at(t, "AC"), at(t, "AD"))
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !got.IsAcyclic() {
		t.Fatal("result should be acyclic")
	}
}

func TestEnumerateSchemesRunningExample(t *testing.T) {
	// Maimon enumerates schemes synthesized from maximal compatible sets
	// of *full* MVDs, i.e. non-extendable decompositions (Sec. 4). On the
	// 4-tuple running example AD is a key (H(AD) = log N), so the paper's
	// 4-relation schema {ABD,ACD,BDE,AF} is extendable and must NOT be in
	// the output; but finer exact schemes must be, all with J = 0.
	m := newMiner(paperR(), 0)
	res, _ := m.MineMVDs()
	paper := schema.MustNew(at(t, "ABD"), at(t, "ACD"), at(t, "BDE"), at(t, "AF"))
	var all []*Scheme
	m.EnumerateSchemes(res.MVDs, 0, func(s *Scheme) bool {
		all = append(all, s)
		if s.Schema.Equal(paper) {
			t.Errorf("extendable paper schema enumerated as maximal")
		}
		if !s.Schema.IsAcyclic() {
			t.Fatalf("emitted cyclic schema %v", s.Schema)
		}
		if s.J < 0 || s.J > 1e-9 {
			t.Fatalf("scheme %v has J = %v at ε=0", s.Schema, s.J)
		}
		return true
	})
	if len(all) == 0 {
		t.Fatal("no schemes enumerated")
	}
	// The decomposition degree of the best scheme must reach 4 relations
	// (the instance decomposes at least as far as the paper schema).
	best := 0
	for _, s := range all {
		if s.M() > best {
			best = s.M()
		}
	}
	if best < 4 {
		t.Errorf("max #relations = %d, want >= 4", best)
	}
}

func TestEnumerateSchemesExactHaveZeroJ(t *testing.T) {
	// At ε = 0 every support MVD holds exactly, so J(S) ≤ Σ J = 0 for
	// every synthesized schema (Cor. 5.2).
	m := newMiner(paperR(), 0)
	res, _ := m.MineMVDs()
	m.EnumerateSchemes(res.MVDs, 0, func(s *Scheme) bool {
		if s.J > 1e-9 {
			t.Fatalf("scheme %v has J = %v at ε=0", s.Schema, s.J)
		}
		return true
	})
}

func TestMineSchemesEndToEnd(t *testing.T) {
	m := newMiner(paperRWithRedTuple(), 0.3)
	schemes, err := mineSchemes(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) == 0 {
		t.Fatal("no schemes")
	}
	for _, s := range schemes {
		if got := s.M(); got != s.Schema.M() {
			t.Fatalf("M mismatch")
		}
		// (m-1)ε bound from Cor. 5.2 (2).
		bound := float64(s.M()-1)*0.3 + 1e-9
		if s.J > bound {
			t.Fatalf("scheme %v J=%v exceeds (m-1)ε=%v", s.Schema, s.J, bound)
		}
	}
}

func TestEnumerateSchemesEmptyMVDSetGivesTrivialSchema(t *testing.T) {
	// Fig. 10(a): with no mined MVDs the only "scheme" is the undecomposed
	// relation {Ω} with J = 0, m = 1.
	m := newMiner(paperR(), 0)
	var got []*Scheme
	m.EnumerateSchemes(nil, 0, func(s *Scheme) bool {
		got = append(got, s)
		return true
	})
	if len(got) != 1 {
		t.Fatalf("got %d schemes, want 1", len(got))
	}
	if got[0].M() != 1 || got[0].J != 0 {
		t.Fatalf("trivial scheme: m=%d J=%v", got[0].M(), got[0].J)
	}
	if got[0].Schema.Relations[0] != bitset.Full(6) {
		t.Fatalf("schema = %v", got[0].Schema)
	}
}

func TestMaxSchemesLimit(t *testing.T) {
	all, _ := mineSchemes(newMiner(paperRWithRedTuple(), 0.4), 0)
	if len(all) <= 2 {
		t.Fatalf("need more than 2 schemes, got %d", len(all))
	}
	schemes, _ := mineSchemes(newMiner(paperRWithRedTuple(), 0.4), 2)
	if len(schemes) != 2 {
		t.Fatalf("limit 2: %d schemes", len(schemes))
	}
}

// mineSchemes runs both phases on m and collects up to limit schemes
// (0 = all); a stop in either phase is returned as the error.
func mineSchemes(m *Miner, limit int) (schemes []*Scheme, err error) {
	res, err := m.MineMVDs()
	if err != nil {
		return nil, err
	}
	err = m.EnumerateSchemes(res.MVDs, limit, func(s *Scheme) bool {
		schemes = append(schemes, s)
		return true
	})
	return schemes, err
}

func TestQuickMinerAgainstBruteForceRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(2) // 4-5 attributes keeps brute force cheap
		r := randomRelation(rng, 20+rng.Intn(20), n, 2)
		eps := []float64{0, 0.1, 0.4}[rng.Intn(3)]
		m := newMiner(r, eps)
		nv := entropy.New(r)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				got := m.MineMinSeps(a, b)
				want := naive.MinSeps(nv, a, b, eps)
				if !sameSets(got, want) {
					t.Fatalf("trial %d eps=%v pair(%d,%d): got %v want %v",
						trial, eps, a, b, got, want)
				}
				for _, sep := range got {
					gotF := m.GetFullMVDs(sep, a, b)
					wantF := naive.FullMVDs(nv, sep, a, b, eps)
					if len(gotF) != len(wantF) {
						t.Fatalf("trial %d eps=%v key=%v: full MVDs %v want %v",
							trial, eps, sep, gotF, wantF)
					}
					for i := range gotF {
						if !gotF[i].Equal(wantF[i]) {
							t.Fatalf("trial %d eps=%v key=%v: full MVDs %v want %v",
								trial, eps, sep, gotF, wantF)
						}
					}
				}
			}
		}
	}
}

// TestMinSepsCompleteAtWidth is the completeness claim (Thm. 6.2) at the
// benchmark's width: on its 13-column `wide` relation (planted chain, 1 %
// noise, planting seed 7) at ε ∈ {0, 0.1, 0.3}, the minimal separators a
// parallel mine finds for each of the 78 pairs are exactly those
// naive.MinSeps finds by scanning every subset of the other 11 attributes.
// One oracle serves every mine and scan, and the scans fan the pairs out.
func TestMinSepsCompleteAtWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force over 78 pairs at three thresholds")
	}
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	o := shared(r)
	pairs := allPairs(r.NumCols())
	workers := runtime.GOMAXPROCS(0)
	for _, eps := range []float64{0, 0.1, 0.3} {
		opts := DefaultOptions(eps)
		opts.Workers = workers
		res, err := NewMiner(o, opts).MineMinSepsAll()
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]bitset.AttrSet, len(pairs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(pairs); i = int(next.Add(1)) - 1 {
					want[i] = naive.MinSeps(o, pairs[i][0], pairs[i][1], eps)
				}
			}()
		}
		wg.Wait()
		for i, p := range pairs {
			if got := res.MinSeps[Pair{p[0], p[1]}]; !sameSets(got, want[i]) {
				t.Errorf("eps=%v pair %v: core mines %v, brute force %v", eps, p, got, want[i])
			}
		}
		t.Logf("eps=%v: %d minimal separators over %d pairs", eps, res.NumMinSeps(), len(pairs))
	}
}

// TestFullMVDsCompleteAtWidth is Phase 1's second half at the benchmark's
// width: on the same `wide` relation at ε ∈ {0, 0.1, 0.3}, for a sample of
// the (pair, minimal separator) a mine emits with at most 8 attributes
// outside the separator — every one of them, or an even stride of 400
// where there are more — the full MVDs GetFullMVDs lists, read from the
// mine's own key memo, are exactly those naive.FullMVDs finds by scanning
// every partition of those attributes.
func TestFullMVDsCompleteAtWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("three mines of the 13-column relation and a brute-force scan per sample")
	}
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	o := shared(r)
	n := r.NumCols()
	for _, eps := range []float64{0, 0.1, 0.3} {
		m := NewMiner(o, DefaultOptions(eps))
		res, err := m.MineMVDs()
		if err != nil {
			t.Fatal(err)
		}
		type emitted struct {
			p   Pair
			sep bitset.AttrSet
		}
		var all []emitted
		for _, p := range allPairs(n) {
			for _, sep := range res.MinSeps[Pair{p[0], p[1]}] {
				if n-sep.Len() <= 8 {
					all = append(all, emitted{Pair{p[0], p[1]}, sep})
				}
			}
		}
		if len(all) == 0 {
			t.Fatalf("eps=%v: no emitted separator leaves at most 8 attributes", eps)
		}
		stride := (len(all) + 399) / 400
		checked, mvds := 0, 0
		for i := 0; i < len(all); i += stride {
			e := all[i]
			got := m.GetFullMVDs(e.sep, e.p.A, e.p.B)
			want := naive.FullMVDs(o, e.sep, e.p.A, e.p.B, eps)
			if !slices.EqualFunc(got, want, mvd.MVD.Equal) {
				t.Fatalf("eps=%v pair %v key %v: GetFullMVDs %v, brute force %v", eps, e.p, e.sep, got, want)
			}
			checked++
			mvds += len(got)
		}
		t.Logf("eps=%v: %d of %d (pair, separator) checked, %d full MVDs", eps, checked, len(all), mvds)
	}
}

func TestQuickBuildAcyclicSchemaFromMinedSets(t *testing.T) {
	// Thm. 7.4 checks on mined compatible sets: result acyclic, join tree
	// exists, and at ε=0 its support holds exactly.
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 15; trial++ {
		r := randomRelation(rng, 30, 5, 2)
		m := newMiner(r, 0)
		res, _ := m.MineMVDs()
		o := m.Oracle()
		m.EnumerateSchemes(res.MVDs, 0, func(s *Scheme) bool {
			if !s.Schema.IsAcyclic() {
				t.Fatalf("cyclic schema %v", s.Schema)
			}
			for _, sup := range s.Tree.Support() {
				if j := info.JMVD(o, sup); j > 1e-9 {
					t.Fatalf("support MVD %v of %v has J=%v at ε=0", sup, s.Schema, j)
				}
			}
			return true
		})
	}
}

func TestNegativeBorderBoundThm122(t *testing.T) {
	// Thm. 12.2: between consecutive separator discoveries, at most
	// |BD⁻(C)| ≤ n·|C| minimal transversals are processed. Since |C| only
	// grows, the longest waste run is bounded by n times the final count.
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(3)
		r := randomRelation(rng, 30+rng.Intn(30), n, 2)
		eps := []float64{0, 0.2, 0.5}[rng.Intn(3)]
		m := newMiner(r, eps)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				seps := m.MineMinSeps(a, b)
				tr := m.LastMinSepTrace()
				if len(seps) == 0 {
					continue
				}
				if bound := n * len(seps); tr.MaxWastedRun > bound {
					t.Fatalf("trial %d pair(%d,%d): waste run %d exceeds n·|C| = %d",
						trial, a, b, tr.MaxWastedRun, bound)
				}
				if tr.Separators != len(seps) {
					t.Fatal("trace separator count mismatch")
				}
			}
		}
	}
}

func TestOptionsPairsRestriction(t *testing.T) {
	r := paperR()
	m := NewMiner(entropy.New(r), DefaultOptions(0))
	// Only the (E,A) pair, deliberately unordered.
	ps, err := m.MinePairMVDs([][2]int{{4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	res := MergePairs(ps)
	if len(res.MinSeps) == 0 {
		t.Fatal("no separators for the requested pair")
	}
	for p := range res.MinSeps {
		if p != (Pair{0, 4}) {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

func TestDeadlineInterrupts(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(7)), 50, 8, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := NewMiner(entropy.New(r), DefaultOptions(0.2)).WithContext(ctx)
	if _, err := m.MineMVDs(); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMineMinSepsAll(t *testing.T) {
	m := newMiner(paperR(), 0)
	res, err := m.MineMinSepsAll()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMinSeps() == 0 {
		t.Fatal("no separators")
	}
	pairs := res.SortedPairs()
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].A > pairs[i].A ||
			(pairs[i-1].A == pairs[i].A && pairs[i-1].B >= pairs[i].B) {
			t.Fatal("pairs not sorted")
		}
	}
	// Cross-check one pair against MineMinSeps directly.
	p := pairs[0]
	direct := m.MineMinSeps(p.A, p.B)
	if !sameSets(res.MinSeps[p], direct) {
		t.Fatalf("MineMinSepsAll disagrees with MineMinSeps for %v", p)
	}
	if m.Options().Epsilon != 0 {
		t.Fatal("Options accessor")
	}
}

func TestMineMinSepsAllDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := NewMiner(entropy.New(randomRelation(rand.New(rand.NewSource(3)), 40, 8, 2)), DefaultOptions(0.2)).WithContext(ctx)
	if _, err := m.MineMinSepsAll(); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newMiner(paperR(), 0)
	m.MineMVDs()
	st := m.SearchStats()
	if st.Searches == 0 || st.Visited == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if math.IsNaN(float64(st.Visited)) {
		t.Fatal("unreachable")
	}
}
