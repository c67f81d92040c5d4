package ci

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/relation"
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

func at(t *testing.T, s string) bitset.AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
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

func mustNew(t *testing.T, y, z, x bitset.AttrSet) Statement {
	t.Helper()
	s, err := New(y, z, x)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewCanonicalizes(t *testing.T) {
	s, err := New(at(t, "CD"), at(t, "AB"), at(t, "E"))
	if err != nil {
		t.Fatal(err)
	}
	// Sides ordered: AB before CD.
	if s.Y != at(t, "AB") || s.Z != at(t, "CD") {
		t.Fatalf("canonical form: %v", s)
	}
	// Overlap with X removed.
	s2, err := New(at(t, "ABE"), at(t, "CDE"), at(t, "E"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Y.Contains(4) || s2.Z.Contains(4) {
		t.Fatal("conditioning attr left in a side")
	}
	if _, err := New(at(t, "A"), at(t, "A"), bitset.Empty()); err == nil {
		t.Fatal("overlapping sides accepted")
	}
	if _, err := New(at(t, "E"), at(t, "AB"), at(t, "E")); err == nil {
		t.Fatal("empty side accepted")
	}
}

func TestMVDEquivalenceOnPaperExample(t *testing.T) {
	// Lee / Geiger-Pearl: R ⊨ X↠Y|Z iff I(Y;Z|X) = 0.
	o := entropy.New(paperR())
	m, err := mvd.Parse("BD->E|ACF")
	if err != nil {
		t.Fatal(err)
	}
	ss := Expand(m)
	if len(ss) != 1 {
		t.Fatalf("standard MVD expanded to %d statements", len(ss))
	}
	s := ss[0]
	if s.X != m.Key || s.Y != m.Deps[0] || s.Z != m.Deps[1] {
		t.Fatalf("statement %v does not carry %v", s, m)
	}
	if s.X.Union(s.Y).Union(s.Z) != bitset.Full(6) {
		t.Fatalf("%v should be saturated", s)
	}
	if !info.LeqEps(s.I(o), 0) {
		t.Fatalf("%v should hold exactly, I = %v", s, s.I(o))
	}
}

func TestExpandStatementsHoldForExactMVD(t *testing.T) {
	// A↠F|BCDE holds; its expansion statements must hold too.
	o := entropy.New(paperR())
	m, _ := mvd.Parse("A->F|BCDE")
	for _, s := range Expand(m) {
		if !info.LeqEps(s.I(o), 0) {
			t.Fatalf("%v fails with I = %v", s, s.I(o))
		}
	}
	// A generalized MVD X ↠ Y1|…|Ym expands to m−1 statements.
	g := mvd.MustNew(bitset.Single(0), bitset.Single(1), bitset.Single(2), bitset.Single(3))
	if got := Expand(g); len(got) != 2 {
		t.Fatalf("Expand gave %d statements, want m-1 = 2", len(got))
	}
}

// Semi-graphoid soundness over empirical distributions: derived
// statements never have larger I than what the axioms guarantee.
func TestQuickDecompositionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		r := randomRelation(rng, 50, 6, 2)
		o := entropy.New(r)
		s := mustNew(t, bitset.Of(0), bitset.Of(1, 2, 3), bitset.Of(4, 5))
		sub, err := s.Decompose(bitset.Of(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		// I(Y; Z'|X) ≤ I(Y; Z|X) — monotonicity.
		if sub.I(o) > s.I(o)+1e-9 {
			t.Fatalf("decomposition increased I: %v > %v", sub.I(o), s.I(o))
		}
	}
}

func TestQuickWeakUnionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		r := randomRelation(rng, 50, 6, 2)
		o := entropy.New(r)
		s := mustNew(t, bitset.Of(0), bitset.Of(1, 2, 3), bitset.Of(4, 5))
		wu, err := s.WeakUnion(bitset.Of(1))
		if err != nil {
			t.Fatal(err)
		}
		// I(Y; Z\W | XW) ≤ I(Y; Z | X) by the chain rule.
		if wu.I(o) > s.I(o)+1e-9 {
			t.Fatalf("weak union increased I: %v > %v", wu.I(o), s.I(o))
		}
	}
}

func TestMinedToCIDedups(t *testing.T) {
	m1, _ := mvd.Parse("A->F|BCDE")
	m2, _ := mvd.Parse("A->F|BCDE")
	out := MinedToCI([]mvd.MVD{m1, m2})
	if len(out) != 1 {
		t.Fatalf("dedup failed: %v", out)
	}
}

func TestReportAndFormat(t *testing.T) {
	s := mustNew(t, at(t, "A"), at(t, "B"), at(t, "C"))
	names := []string{"x", "y", "z"}
	if got := s.Format(names); got != "x ⟂ y | z" {
		t.Fatalf("Format = %q", got)
	}
	if rep := Report([]Statement{s}, names); len(rep) == 0 {
		t.Fatal("empty report")
	}
}
