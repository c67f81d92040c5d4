package decompose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/relation"
	"repro/internal/schema"
)

func at(t *testing.T, s string) bitset.AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

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

func paperSchema(t *testing.T) schema.Schema {
	return schema.MustNew(at(t, "ABD"), at(t, "ACD"), at(t, "BDE"), at(t, "AF"))
}

func TestAnalyzeExactDecomposition(t *testing.T) {
	m, err := Analyze(entropy.New(paperR()), paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.JoinSize != 4 {
		t.Fatalf("JoinSize = %v, want 4", m.JoinSize)
	}
	if m.Spurious != 0 || m.SpuriousPct != 0 {
		t.Fatalf("spurious = %v (%v%%), want 0", m.Spurious, m.SpuriousPct)
	}
	if m.Relations != 4 || m.Width != 3 || m.IntWidth != 2 {
		t.Fatalf("shape: %+v", m)
	}
	// Cells: original 4×6 = 24; decomposed: ABD 4×3 + ACD 4×3 + BDE 3×3 + AF 2×2 = 37.
	if m.CellsOriginal != 24 {
		t.Fatalf("CellsOriginal = %d", m.CellsOriginal)
	}
	if m.CellsDecomposed != 37 {
		t.Fatalf("CellsDecomposed = %d", m.CellsDecomposed)
	}
	if m.SavingsPct >= 0 {
		// This tiny example actually *costs* storage; savings are negative.
		t.Fatalf("SavingsPct = %v, expected negative", m.SavingsPct)
	}
}

func TestAnalyzeRedTupleOneSpurious(t *testing.T) {
	// Sec. 2: the join gains exactly the spurious tuple (a2,b2,c2,d2,e2,f2).
	m, err := Analyze(entropy.New(paperRWithRedTuple()), paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.JoinSize != 6 {
		t.Fatalf("JoinSize = %v, want 6 (5 real + 1 spurious)", m.JoinSize)
	}
	if m.Spurious != 1 {
		t.Fatalf("Spurious = %v, want 1", m.Spurious)
	}
	if math.Abs(m.SpuriousPct-20) > 1e-9 {
		t.Fatalf("SpuriousPct = %v, want 20", m.SpuriousPct)
	}
}

func TestMaterializeJoinMatchesCount(t *testing.T) {
	for _, r := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
		m, err := Analyze(entropy.New(r), paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		joined, err := MaterializeJoin(r, paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if float64(joined.NumRows()) != m.JoinSize {
			t.Fatalf("materialized %d rows, counted %v", joined.NumRows(), m.JoinSize)
		}
		// Lossless-join property: R ⊆ join.
		for i := 0; i < r.NumRows(); i++ {
			if !joined.ContainsRow(r, i) {
				t.Fatalf("row %d of R missing from the join", i)
			}
		}
	}
}

func TestMaterializeJoinFindsPaperSpuriousTuple(t *testing.T) {
	joined, err := MaterializeJoin(paperRWithRedTuple(), paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	spurious := relation.MustFromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{{"a2", "b2", "c2", "d2", "e2", "f2"}},
	)
	if !joined.ContainsRow(spurious, 0) {
		t.Fatal("the paper's spurious tuple (a2,b2,c2,d2,e2,f2) is missing")
	}
}

func TestAnalyzeSingleRelationSchema(t *testing.T) {
	r := paperR()
	m, err := Analyze(entropy.New(r), schema.MustNew(bitset.Full(6)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Spurious != 0 || m.SavingsPct != 0 {
		t.Fatalf("trivial schema: %+v", m)
	}
}

func TestAnalyzeRejectsWrongCoverage(t *testing.T) {
	r := paperR()
	if _, err := Analyze(entropy.New(r), schema.MustNew(at(t, "AB"), at(t, "BC"))); err == nil {
		t.Fatal("schema not covering Ω accepted")
	}
}

func TestFullColumnDecomposition(t *testing.T) {
	// Decomposing into single columns: join size = product of domain
	// sizes (the extreme example of Sec. 8.1).
	r := paperR()
	s := schema.MustNew(
		bitset.Single(0), bitset.Single(1), bitset.Single(2),
		bitset.Single(3), bitset.Single(4), bitset.Single(5))
	m, err := Analyze(entropy.New(r), s)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2 * 2 * 2 * 2 * 3 * 2) // |A||B||C||D||E||F|
	if m.JoinSize != want {
		t.Fatalf("JoinSize = %v, want %v", m.JoinSize, want)
	}
}

func TestQuickJoinSizeMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(2)
		rows := 10 + rng.Intn(20)
		data := make([][]relation.Code, n)
		names := make([]string, n)
		for j := range data {
			col := make([]relation.Code, rows)
			for i := range col {
				col[i] = relation.Code(rng.Intn(3))
			}
			data[j] = col
			names[j] = string(rune('A' + j))
		}
		r, err := relation.FromCodes(names, data)
		if err != nil {
			t.Fatal(err)
		}
		// Random acyclic schema: split Ω by a random standard MVD chain.
		key := bitset.Single(rng.Intn(n))
		var y, z bitset.AttrSet
		bitset.Full(n).Diff(key).ForEach(func(a int) bool {
			if rng.Intn(2) == 0 {
				y = y.Add(a)
			} else {
				z = z.Add(a)
			}
			return true
		})
		if y.IsEmpty() || z.IsEmpty() {
			continue
		}
		s, err := schema.New([]bitset.AttrSet{key.Union(y), key.Union(z)})
		if err != nil {
			continue
		}
		m, err := Analyze(entropy.New(r), s)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := MaterializeJoin(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if float64(joined.NumRows()) != m.JoinSize {
			t.Fatalf("trial %d: counted %v, materialized %d", trial, m.JoinSize, joined.NumRows())
		}
		if m.Spurious < 0 {
			t.Fatalf("trial %d: negative spurious count %v", trial, m.Spurious)
		}
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Index: 0, Savings: 10, Spurious: 5},
		{Index: 1, Savings: 20, Spurious: 5},  // dominates 0
		{Index: 2, Savings: 30, Spurious: 10}, // tradeoff
		{Index: 3, Savings: 5, Spurious: 20},  // dominated by all
		{Index: 4, Savings: 20, Spurious: 5},  // duplicate of 1
	}
	front := ParetoFront(pts)
	if len(front) != 2 {
		t.Fatalf("front = %v", front)
	}
	if front[0].Index != 1 && front[0].Index != 4 {
		t.Fatalf("front[0] = %+v", front[0])
	}
	if front[1].Index != 2 {
		t.Fatalf("front[1] = %+v", front[1])
	}
	// Front must be sorted by spurious ascending.
	if front[0].Spurious > front[1].Spurious {
		t.Fatal("front not sorted")
	}
}

func TestParetoFrontEmpty(t *testing.T) {
	if got := ParetoFront(nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
