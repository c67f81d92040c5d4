package info

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/mvd"
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

func paperSchema(t *testing.T) schema.Schema {
	return schema.MustNew(at(t, "ABD"), at(t, "ACD"), at(t, "BDE"), at(t, "AF"))
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

func TestLeeTheoremOnRunningExample(t *testing.T) {
	o := entropy.New(paperR())
	j, err := JSchema(o, paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j) > 1e-12 {
		t.Fatalf("J(paper schema) = %v, want 0 (exact AJD)", j)
	}
}

func TestRedTupleMakesJPositive(t *testing.T) {
	o := entropy.New(paperRWithRedTuple())
	j, err := JSchema(o, paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if j <= 1e-12 {
		t.Fatalf("J should be positive with the red tuple, got %v", j)
	}
}

func TestJMVDMatchesMIForStandard(t *testing.T) {
	o := entropy.New(paperR())
	m, err := mvd.Parse("BD->E|ACF")
	if err != nil {
		t.Fatal(err)
	}
	jm := JMVD(o, m)
	mi := o.MI(at(t, "E"), at(t, "ACF"), at(t, "BD"))
	if math.Abs(jm-mi) > 1e-12 {
		t.Fatalf("JMVD = %v, MI = %v", jm, mi)
	}
}

func TestSec52CounterExample(t *testing.T) {
	// Sec. 5.2: two tuples over X,A,B,C; at ε = 1 all three pairwise
	// merges hold but the three-way refinement does not:
	// J(X↠AB|C) = J(X↠AC|B) = J(X↠BC|A) = 1 but J(X↠A|B|C) = 2.
	r := relation.MustFromRows(
		[]string{"X", "A", "B", "C"},
		[][]string{
			{"0", "0", "0", "0"},
			{"0", "1", "1", "1"},
		},
	)
	o := entropy.New(r)
	x, a, b, c := bitset.Single(0), bitset.Single(1), bitset.Single(2), bitset.Single(3)
	cases := []struct {
		m    mvd.MVD
		want float64
	}{
		{mvd.MustNew(x, a.Union(b), c), 1},
		{mvd.MustNew(x, a.Union(c), b), 1},
		{mvd.MustNew(x, b.Union(c), a), 1},
		{mvd.MustNew(x, a, b, c), 2},
	}
	for _, tc := range cases {
		if got := JMVD(o, tc.m); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("J(%v) = %v, want %v", tc.m, got, tc.want)
		}
	}
}

func TestTreeIdentityThm51(t *testing.T) {
	// Identity (9): J(T) = Σ I(Ω1:(i-1); Ωi | Δi), on both the exact and
	// the perturbed running example.
	for _, r := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
		o := entropy.New(r)
		tree, err := schema.BuildJoinTree(paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		jt := JTree(o, tree)
		ms := TreeMISum(o, tree)
		if math.Abs(jt-ms) > 1e-9 {
			t.Fatalf("J(T) = %v but MI sum = %v", jt, ms)
		}
	}
}

func TestSupportBoundThm51(t *testing.T) {
	// Inequality (10): max J(support) <= J(T) <= sum J(support).
	o := entropy.New(paperRWithRedTuple())
	tree, err := schema.BuildJoinTree(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	jt := JTree(o, tree)
	maxJ, sumJ := SupportMVDBound(o, tree)
	if maxJ > jt+1e-9 || jt > sumJ+1e-9 {
		t.Fatalf("bound violated: max %v, J %v, sum %v", maxJ, jt, sumJ)
	}
}

func TestJSchemaRejectsCyclic(t *testing.T) {
	o := entropy.New(paperR())
	tri := schema.MustNew(at(t, "AB"), at(t, "BC"), at(t, "AC"))
	if _, err := JSchema(o, tri); err == nil {
		t.Fatal("J of a cyclic schema should error")
	}
}

// Property: Prop. 5.1 inequality (7): dropping attributes from the
// dependents cannot increase J:
// J(X ↠ Y1|…|Ym) ≤ J(X ↠ Y1Z1|…|YmZm).
func TestQuickProp51Eq7(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.Intn(2)
		r := randomRelation(rng, 50, n, 2)
		o := entropy.New(r)
		key := bitset.Single(rng.Intn(n))
		big, err := mvd.Singletons(key, n)
		if err != nil {
			continue
		}
		for big.M() > 2 && rng.Intn(2) == 0 {
			i, j := rng.Intn(big.M()), rng.Intn(big.M())
			if i != j {
				big = big.Merge(i, j)
			}
		}
		// Shrink each dependent to a random non-empty subset.
		deps := make([]bitset.AttrSet, 0, big.M())
		for _, d := range big.Deps {
			sub := d & bitset.AttrSet(rng.Int63())
			if sub.IsEmpty() {
				sub = bitset.Single(d.Min())
			}
			deps = append(deps, sub)
		}
		small, err := mvd.New(big.Key, deps)
		if err != nil {
			t.Fatal(err)
		}
		if JMVD(o, small) > JMVD(o, big)+1e-9 {
			t.Fatalf("Prop 5.1(7) violated: J(%v)=%v > J(%v)=%v",
				small, JMVD(o, small), big, JMVD(o, big))
		}
	}
}

// Property: Prop. 5.1 inequality (8): moving attributes from the
// dependents into the key cannot increase J:
// J(XZ1…Zm ↠ Y1|…|Ym) ≤ J(X ↠ Y1Z1|…|YmZm).
func TestQuickProp51Eq8(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.Intn(2)
		r := randomRelation(rng, 50, n, 2)
		o := entropy.New(r)
		key := bitset.Single(rng.Intn(n))
		big, err := mvd.Singletons(key, n)
		if err != nil {
			continue
		}
		for big.M() > 3 && rng.Intn(2) == 0 {
			i, j := rng.Intn(big.M()), rng.Intn(big.M())
			if i != j {
				big = big.Merge(i, j)
			}
		}
		// Move a random piece of each dependent into the key.
		newKey := big.Key
		deps := make([]bitset.AttrSet, 0, big.M())
		for _, d := range big.Deps {
			move := d & bitset.AttrSet(rng.Int63())
			if move == d {
				move = move.Remove(d.Min()) // keep the dependent non-empty
			}
			newKey = newKey.Union(move)
			deps = append(deps, d.Diff(move))
		}
		small, err := mvd.New(newKey, deps)
		if err != nil {
			t.Fatal(err)
		}
		if JMVD(o, small) > JMVD(o, big)+1e-9 {
			t.Fatalf("Prop 5.1(8) violated: J(%v)=%v > J(%v)=%v",
				small, JMVD(o, small), big, JMVD(o, big))
		}
	}
}

// Property: Cor. 5.2 both directions on the paper schema across noise
// levels: (1) R ⊨ε AJD(S) ⇒ every support MVD has J ≤ ε (take ε = J(S));
// (2) support max J ≤ ε ⇒ J(S) ≤ (m−1)ε.
func TestQuickCorollary52(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		r := randomRelation(rng, 40+rng.Intn(40), 6, 2)
		o := entropy.New(r)
		tree, err := schema.BuildJoinTree(paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		jS := JTree(o, tree)
		support := tree.Support()
		maxJ := 0.0
		for _, m := range support {
			if j := JMVD(o, m); j > maxJ {
				maxJ = j
			}
		}
		if maxJ > jS+1e-9 {
			t.Fatalf("Cor 5.2(1) violated: support max %v > J(S) %v", maxJ, jS)
		}
		if jS > float64(len(support))*maxJ+1e-9 {
			t.Fatalf("Cor 5.2(2) violated: J(S) %v > (m-1)·maxJ %v", jS, float64(len(support))*maxJ)
		}
	}
}

// Property: J of a random MVD over a random relation is non-negative
// (Shannon), and refinement is monotone (Prop. 5.2): ϕ ⪰ ψ ⇒ J(ϕ) ≥ J(ψ).
func TestQuickRefinementMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		n := 5 + rng.Intn(3)
		r := randomRelation(rng, 40, n, 2)
		o := entropy.New(r)
		key := bitset.Single(rng.Intn(n))
		fine, err := mvd.Singletons(key, n)
		if err != nil {
			continue
		}
		coarse := fine
		for coarse.M() > 2 && rng.Intn(3) > 0 {
			i, j := rng.Intn(coarse.M()), rng.Intn(coarse.M())
			if i != j {
				coarse = coarse.Merge(i, j)
			}
		}
		jf, jc := JMVD(o, fine), JMVD(o, coarse)
		if jf < 0 || jc < 0 {
			t.Fatalf("negative J: %v %v", jf, jc)
		}
		if jf < jc-1e-9 {
			t.Fatalf("refinement monotonicity violated: J(fine)=%v < J(coarse)=%v", jf, jc)
		}
	}
}

// Property: Lemma 5.4: J(ϕ∨ψ) ≤ J(ϕ) + m·J(ψ) and ≤ k·J(ϕ) + J(ψ).
func TestQuickLemma54(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 150; trial++ {
		n := 5 + rng.Intn(3)
		r := randomRelation(rng, 50, n, 2)
		o := entropy.New(r)
		key := bitset.Single(0)
		root, err := mvd.Singletons(key, n)
		if err != nil {
			continue
		}
		coarsen := func() mvd.MVD {
			m := root
			for m.M() > 2 && rng.Intn(2) == 0 {
				i, j := rng.Intn(m.M()), rng.Intn(m.M())
				if i != j {
					m = m.Merge(i, j)
				}
			}
			return m
		}
		phi, psi := coarsen(), coarsen()
		join, err := phi.Join(psi)
		if err != nil {
			t.Fatal(err)
		}
		jj, jp, js := JMVD(o, join), JMVD(o, phi), JMVD(o, psi)
		m, k := float64(phi.M()), float64(psi.M())
		if jj > jp+m*js+1e-9 {
			t.Fatalf("Lemma 5.4 (1) violated: %v > %v + %v*%v", jj, jp, m, js)
		}
		if jj > k*jp+js+1e-9 {
			t.Fatalf("Lemma 5.4 (2) violated: %v > %v*%v + %v", jj, k, jp, js)
		}
		// And the join refines both: J(ϕ∨ψ) ≥ max(J(ϕ),J(ψ)).
		if jj < math.Max(jp, js)-1e-9 {
			t.Fatalf("join J below max of operands: %v < max(%v,%v)", jj, jp, js)
		}
	}
}

// Property: J(T) ≥ 0 for random join trees over random relations, and the
// Thm. 5.1 identity holds.
func TestQuickTreeIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		n := 6
		r := randomRelation(rng, 60, n, 2)
		o := entropy.New(r)
		// Random acyclic schema: decompose Ω by random standard MVDs.
		s := schema.MustNew(bitset.Full(n))
		for step := 0; step < 2; step++ {
			relIdx := rng.Intn(s.M())
			omega := s.Relations[relIdx]
			if omega.Len() < 3 {
				continue
			}
			idx := omega.Indices()
			key := bitset.Single(idx[rng.Intn(len(idx))])
			var y, z bitset.AttrSet
			for _, a := range idx {
				if key.Contains(a) {
					continue
				}
				if rng.Intn(2) == 0 {
					y = y.Add(a)
				} else {
					z = z.Add(a)
				}
			}
			if y.IsEmpty() || z.IsEmpty() {
				continue
			}
			var newRels []bitset.AttrSet
			for i, rel := range s.Relations {
				if i != relIdx {
					newRels = append(newRels, rel)
				}
			}
			newRels = append(newRels, key.Union(y), key.Union(z))
			ns, err := schema.New(newRels)
			if err != nil {
				continue
			}
			s = ns
		}
		tree, err := schema.BuildJoinTree(s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		jt := JTree(o, tree)
		if jt < 0 {
			t.Fatalf("negative J(T) = %v", jt)
		}
		if ms := TreeMISum(o, tree); math.Abs(jt-ms) > 1e-9 {
			t.Fatalf("identity violated: %v vs %v", jt, ms)
		}
		maxJ, sumJ := SupportMVDBound(o, tree)
		if maxJ > jt+1e-9 || jt > sumJ+1e-9 {
			t.Fatalf("support bound violated: %v ≤ %v ≤ %v", maxJ, jt, sumJ)
		}
	}
}
