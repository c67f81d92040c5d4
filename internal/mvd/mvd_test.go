package mvd

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

func at(t *testing.T, s string) bitset.AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return a
}

func TestNewValidates(t *testing.T) {
	if _, err := New(bitset.Of(0), []bitset.AttrSet{bitset.Of(1)}); err == nil {
		t.Fatal("single dependent accepted")
	}
	if _, err := New(bitset.Of(0), []bitset.AttrSet{bitset.Of(1), bitset.Empty()}); err == nil {
		t.Fatal("empty dependent accepted")
	}
	if _, err := New(bitset.Of(0), []bitset.AttrSet{bitset.Of(0, 1), bitset.Of(2)}); err == nil {
		t.Fatal("key-overlapping dependent accepted")
	}
	if _, err := New(bitset.Of(0), []bitset.AttrSet{bitset.Of(1, 2), bitset.Of(2, 3)}); err == nil {
		t.Fatal("overlapping dependents accepted")
	}
	m, err := New(bitset.Of(0), []bitset.AttrSet{bitset.Of(3, 4), bitset.Of(1)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Deps[0] != bitset.Of(1) {
		t.Fatal("dependents not canonicalized")
	}
}

func TestSingletons(t *testing.T) {
	m, err := Singletons(bitset.Of(0, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.M() != 4 {
		t.Fatalf("M = %d", m.M())
	}
	if m.Attrs() != bitset.Full(6) {
		t.Fatal("Attrs should cover the universe")
	}
	if _, err := Singletons(bitset.Full(5), 6); err == nil {
		t.Fatal("key leaving 1 free attribute accepted")
	}
}

func TestSeparates(t *testing.T) {
	m := MustNew(at(t, "AD"), at(t, "CF"), at(t, "BE"))
	if !m.Separates(2, 1) { // C vs B
		t.Fatal("C,B should be separated")
	}
	if m.Separates(2, 5) { // C and F share a dependent
		t.Fatal("C,F are together")
	}
	if m.Separates(0, 1) { // A is in the key
		t.Fatal("key attribute cannot be separated")
	}
}

func TestMerge(t *testing.T) {
	m, _ := Singletons(bitset.Of(0), 5) // A ↠ B|C|D|E
	merged := m.Merge(0, 1)
	if merged.M() != 3 {
		t.Fatalf("merge M = %d", merged.M())
	}
	if want := MustNew(bitset.Of(0), bitset.Of(3), bitset.Of(4), bitset.Of(1, 2)); !merged.Equal(want) {
		t.Fatalf("merge = %v, want %v", merged, want)
	}
}

// Property: MergeDeps lands on the canonical form New would produce, for
// either index order, merging in place (dst = deps[:0]) gives the same
// list as merging into fresh storage, and the index it reports holds the
// union, no earlier than max(i, j) − 1.
func TestQuickMergeDepsCanonicalInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(9)
		m, err := Singletons(bitset.Single(rng.Intn(n)), n)
		if err != nil {
			t.Fatal(err)
		}
		for m.M() > 2 {
			i, j := rng.Intn(m.M()), rng.Intn(m.M())
			if i == j {
				continue
			}
			var loose []bitset.AttrSet
			for k, d := range m.Deps {
				if k != i && k != j {
					loose = append(loose, d)
				}
			}
			want := MustNew(m.Key, append(loose, m.Deps[i].Union(m.Deps[j]))...)
			got := m.Merge(i, j)
			if !got.Equal(want) {
				t.Fatalf("Merge(%d,%d) of %v = %v, want %v", i, j, m, got, want)
			}
			inPlace := append([]bitset.AttrSet(nil), m.Deps...)
			inPlace, at := MergeDeps(inPlace[:0], inPlace, i, j)
			if !(MVD{Key: m.Key, Deps: inPlace}).Equal(want) {
				t.Fatalf("in-place MergeDeps(%d,%d) of %v = %v, want %v", i, j, m, inPlace, want)
			}
			if inPlace[at] != m.Deps[i].Union(m.Deps[j]) || at < max(i, j)-1 {
				t.Fatalf("MergeDeps(%d,%d) of %v reports the union at %d of %v", i, j, m, at, inPlace)
			}
			prefixed, at2 := MergeDeps([]bitset.AttrSet{m.Key}, m.Deps, i, j)
			if at2 != at || prefixed[1+at] != inPlace[at] {
				t.Fatalf("MergeDeps(%d,%d) after a prefix reports %d, want %d (relative to what it appended)", i, j, at2, at)
			}
			m = got
		}
	}
}

func TestRefines(t *testing.T) {
	key := bitset.Of(10)
	fine := MustNew(key, bitset.Of(0), bitset.Of(1), bitset.Of(2))
	coarse := MustNew(key, bitset.Of(0, 1), bitset.Of(2))
	if !fine.Refines(coarse) {
		t.Fatal("fine should refine coarse")
	}
	if coarse.Refines(fine) {
		t.Fatal("coarse should not refine fine")
	}
	if !fine.Refines(fine) {
		t.Fatal("refinement is reflexive")
	}
	if !fine.StrictlyRefines(coarse) || fine.StrictlyRefines(fine) {
		t.Fatal("StrictlyRefines wrong")
	}
	other := MustNew(bitset.Of(11), bitset.Of(0), bitset.Of(1, 2))
	if fine.Refines(other) {
		t.Fatal("different keys cannot refine")
	}
}

func TestJoin(t *testing.T) {
	key := bitset.Of(9)
	phi := MustNew(key, bitset.Of(0, 1), bitset.Of(2, 3))
	psi := MustNew(key, bitset.Of(0, 2), bitset.Of(1, 3))
	j, err := phi.Join(psi)
	if err != nil {
		t.Fatal(err)
	}
	if j.M() != 4 {
		t.Fatalf("join M = %d, want 4 singletons", j.M())
	}
	if !j.Refines(phi) || !j.Refines(psi) {
		t.Fatal("join must refine both operands")
	}
	if _, err := phi.Join(MustNew(bitset.Of(8), bitset.Of(0, 1), bitset.Of(2, 3))); err == nil {
		t.Fatal("join across keys accepted")
	}
	if _, err := phi.Join(MustNew(key, bitset.Of(0, 1), bitset.Of(2))); err == nil {
		t.Fatal("join across different coverage accepted")
	}
}

func TestToStandard(t *testing.T) {
	m := MustNew(bitset.Of(6), bitset.Of(0), bitset.Of(1), bitset.Of(2, 3))
	s := m.ToStandard(0)
	if !s.IsStandard() {
		t.Fatal("not standard")
	}
	if s.Deps[0] != bitset.Of(0) || s.Deps[1] != bitset.Of(1, 2, 3) {
		t.Fatalf("ToStandard = %v", s)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	m := MustNew(at(t, "AD"), at(t, "CF"), at(t, "BE"))
	s := m.String()
	if s != "AD↠BE|CF" {
		t.Fatalf("String = %q", s)
	}
	back, err := Parse(s)
	if err != nil || !back.Equal(m) {
		t.Fatalf("round trip: %v, %v", back, err)
	}
	alt, err := Parse("AD ->> CF|BE")
	if err != nil || !alt.Equal(m) {
		t.Fatalf("ASCII arrow parse: %v, %v", alt, err)
	}
	if _, err := Parse("no arrow here"); err == nil {
		t.Fatal("arrowless string accepted")
	}
	if _, err := Parse("A->B"); err == nil {
		t.Fatal("single dependent accepted")
	}
}

func TestFormat(t *testing.T) {
	names := []string{"u", "v", "w", "x"}
	m := MustNew(bitset.Of(0), bitset.Of(1), bitset.Of(2, 3))
	if got := m.Format(names); got != "u ->> v | w,x" {
		t.Fatalf("Format = %q", got)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := MustNew(bitset.Of(0), bitset.Of(1), bitset.Of(2))
	b := MustNew(bitset.Of(0), bitset.Of(1), bitset.Of(3))
	c := MustNew(bitset.Of(0), bitset.Of(2), bitset.Of(1)) // same as a, reordered
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different MVDs share a fingerprint")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("canonical forms should share a fingerprint")
	}
}

func TestSortOrdersByKeyCardinality(t *testing.T) {
	big := MustNew(bitset.Of(0, 1), bitset.Of(2), bitset.Of(3))
	small := MustNew(bitset.Of(5), bitset.Of(2), bitset.Of(3))
	ms := []MVD{big, small}
	Sort(ms)
	if !ms[0].Equal(small) {
		t.Fatal("Sort should put smaller keys first")
	}
}

// Property: Merge produces a coarsening that the original refines, and
// repeated merges always terminate at a standard MVD.
func TestQuickMergeRefines(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(6)
		key := bitset.Single(rng.Intn(n))
		m, err := Singletons(key, n)
		if err != nil {
			continue
		}
		for m.M() > 2 {
			i := rng.Intn(m.M())
			j := rng.Intn(m.M())
			if i == j {
				continue
			}
			merged := m.Merge(i, j)
			if !m.Refines(merged) {
				t.Fatalf("%v does not refine its merge %v", m, merged)
			}
			if merged.M() != m.M()-1 {
				t.Fatal("merge must reduce dependent count by 1")
			}
			m = merged
		}
	}
}

// Property: Join refines both operands (when defined).
func TestQuickJoinRefinesBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(4)
		key := bitset.Single(n - 1)
		root, err := Singletons(key, n)
		if err != nil {
			continue
		}
		coarsen := func() MVD {
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
		j, err := phi.Join(psi)
		if err != nil {
			t.Fatalf("join of same-coverage MVDs failed: %v", err)
		}
		if !j.Refines(phi) || !j.Refines(psi) {
			t.Fatalf("join %v does not refine %v and %v", j, phi, psi)
		}
	}
}
