package maimon

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/decompose"
	"repro/internal/mvd"
	"repro/internal/schema"
)

var paperNames = []string{"A", "B", "C", "D", "E", "F"}

var paperRows = [][]string{
	{"a1", "b1", "c1", "d1", "e1", "f1"},
	{"a2", "b2", "c1", "d1", "e2", "f2"},
	{"a2", "b2", "c2", "d2", "e3", "f2"},
	{"a1", "b2", "c1", "d2", "e3", "f1"},
}

func paperRelation(t *testing.T) *Relation {
	t.Helper()
	r, err := FromRows(paperNames, paperRows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustOpen opens a session over r with default options.
func mustOpen(t *testing.T, r *Relation) *Session {
	t.Helper()
	s, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublicAPIEndToEnd(t *testing.T) {
	s := mustOpen(t, paperRelation(t))
	schemes, res, err := s.MineSchemes(context.Background(), WithEpsilon(0), WithMaxSchemes(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MVDs) == 0 || len(schemes) == 0 {
		t.Fatalf("MVDs=%d schemes=%d", len(res.MVDs), len(schemes))
	}
	for _, sc := range schemes {
		met, err := s.Analyze(sc.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if sc.J > 1e-9 || met.SpuriousPct > 1e-9 {
			t.Fatalf("exact scheme with J=%v E=%v", sc.J, met.SpuriousPct)
		}
	}
}

func TestMineMVDsValidatesArity(t *testing.T) {
	r, err := FromRows([]string{"A", "B"}, [][]string{{"x", "y"}, {"u", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, r)
	ctx := context.Background()
	if _, err := s.MineMVDs(ctx); err == nil {
		t.Fatal("2-column relation accepted")
	}
	if _, _, err := s.MineSchemes(ctx); err == nil {
		t.Fatal("2-column relation accepted")
	}
}

func TestJPublic(t *testing.T) {
	r := paperRelation(t)
	phi, err := ParseMVD("A->F|BCDE")
	if err != nil {
		t.Fatal(err)
	}
	if j := mustOpen(t, r).J(phi); math.Abs(j) > 1e-12 {
		t.Fatalf("J = %v, want 0", j)
	}
}

func TestJOfSchemaPublic(t *testing.T) {
	r := paperRelation(t)
	s, err := NewSchema([]AttrSet{
		mustParseSet(t, "ABD"), mustParseSet(t, "ACD"),
		mustParseSet(t, "BDE"), mustParseSet(t, "AF"),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mustOpen(t, r).JOfSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j) > 1e-12 {
		t.Fatalf("J = %v", j)
	}
}

func mustParseSet(t *testing.T, s string) AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLoadCSVRoundTrip(t *testing.T) {
	r := paperRelation(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "paper.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := LoadCSV(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadCSVPublic(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("A,B,C\n1,2,3\n4,5,6\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 || r.NumCols() != 3 {
		t.Fatalf("%dx%d", r.NumRows(), r.NumCols())
	}
}

// A deadline that has passed before the mine starts stops it at the
// first poll, as context.DeadlineExceeded.
func TestTimeoutReportsInterrupted(t *testing.T) {
	r := datagen.Uniform(200, 12, 3, 5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := mustOpen(t, r).MineMVDs(ctx, WithEpsilon(0.3))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestNurseryPublic(t *testing.T) {
	r := Nursery()
	if r.NumRows() != datagen.NurseryRows {
		t.Fatalf("rows = %d", r.NumRows())
	}
}

// End-to-end planted-recovery integration: the miner must rediscover the
// planted join tree's support at ε = 0 on noiseless data.
func TestPlantedSupportRecovered(t *testing.T) {
	bags := []AttrSet{
		bitset.Of(0, 1, 2),
		bitset.Of(1, 2, 3),
		bitset.Of(3, 4),
	}
	r, planted, err := datagen.Planted(datagen.PlantedSpec{
		Bags: bags, RootTuples: 24, ExtPerSep: 3, Domain: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, r)
	res, err := s.MineMVDs(context.Background(), WithEpsilon(0))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := schema.BuildJoinTree(planted)
	if err != nil {
		t.Fatal(err)
	}
	for _, sup := range tree.Support() {
		// Some mined full MVD must refine each support MVD with a key
		// contained in the support key (the mined key is a minimal
		// separator, possibly smaller).
		found := false
		for _, m := range res.MVDs {
			if !m.Key.SubsetOf(sup.Key) {
				continue
			}
			// Verify m implies sup's separation: sup's two dependents lie
			// in different dependents of m for at least one witness pair.
			a, b := sup.Deps[0].Min(), sup.Deps[1].Min()
			if m.Separates(a, b) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("support MVD %v not recovered; mined %v", sup, res.MVDs)
		}
	}
	// And scheme enumeration must produce a scheme at least as decomposed
	// as the planted one.
	schemes, _, err := s.MineSchemes(context.Background(), WithEpsilon(0), WithMaxSchemes(200))
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for _, s := range schemes {
		if s.M() > best {
			best = s.M()
		}
	}
	if best < planted.M() {
		t.Errorf("deepest mined scheme has %d relations; planted has %d", best, planted.M())
	}
}

// TestFullWorkflowIntegration exercises the complete downstream-user
// path: generate data, write CSV, load it back, mine schemes, pick one,
// decompose to per-relation CSVs, reload those, and verify the join
// semantics (lossless containment of R; spurious count matching the
// analytic J-driven prediction).
func TestFullWorkflowIntegration(t *testing.T) {
	bags := []AttrSet{bitset.Of(0, 1, 2), bitset.Of(2, 3, 4)}
	gen, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: bags, RootTuples: 40, ExtPerSep: 2, Domain: 8,
		NoiseCells: 0.02, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "data.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := LoadCSV(csvPath, true)
	if err != nil {
		t.Fatal(err)
	}
	sess := mustOpen(t, r)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	schemes, _, err := sess.MineSchemes(ctx, WithEpsilon(0.5), WithMaxSchemes(30))
	if err != nil && err != context.DeadlineExceeded {
		t.Fatal(err)
	}
	if len(schemes) == 0 {
		t.Fatal("no schemes mined")
	}
	s := schemes[0]
	for _, cand := range schemes {
		if cand.M() > s.M() {
			s = cand
		}
	}

	d, err := sess.Decompose(s.Schema)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "decomposed")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSVs(outDir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != s.M() {
		t.Fatalf("%d files for %d relations", len(files), s.M())
	}

	// Reload the fragments, rebuild the decomposition, join, and verify
	// the lossless property: R ⊆ join, |join| = analytic count.
	projections := make([]*Relation, len(files))
	for i := range d.Projections {
		name := filepath.Join(outDir, strings.Join(d.Projections[i].Names(), "_")+".csv")
		back, err := LoadCSV(name, true)
		if err != nil {
			t.Fatal(err)
		}
		projections[i] = back
	}
	reloaded := &decompose.Decomposition{Tree: d.Tree, Projections: projections}
	joined := reloaded.Join()
	met, err := sess.Analyze(s.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if float64(joined.NumRows()) != met.JoinSize {
		t.Fatalf("reloaded join has %d rows, analytics predicted %v", joined.NumRows(), met.JoinSize)
	}
	base := r.Dedup()
	for i := 0; i < base.NumRows(); i++ {
		if !joined.ContainsRow(base, i) {
			t.Fatalf("row %d of R lost by the decomposition round-trip", i)
		}
	}
}

func TestCIStatementsPublic(t *testing.T) {
	r := paperRelation(t)
	s := mustOpen(t, r)
	res, err := s.MineMVDs(context.Background(), WithEpsilon(0))
	if err != nil {
		t.Fatal(err)
	}
	stmts := CIStatements(res.MVDs)
	if len(stmts) == 0 {
		t.Fatal("no CI statements")
	}
	// Every statement must be saturated and hold exactly over the
	// empirical distribution.
	for _, st := range stmts {
		if st.X.Union(st.Y).Union(st.Z) != bitset.Full(r.NumCols()) {
			t.Fatalf("statement %v is not saturated", st)
		}
		m, err := mvd.New(st.X, []AttrSet{st.Y, st.Z})
		if err != nil {
			t.Fatal(err)
		}
		if j := s.J(m); j > 1e-9 {
			t.Fatalf("statement %v has I = %v", st, j)
		}
	}
}

func TestSchemeSupportsAreEpsilonMVDs(t *testing.T) {
	// Cor. 5.2 (1): a mined ε-scheme's join-tree support consists of
	// MVDs with J ≤ J(S) ≤ (m-1)ε... the left inequality (10) gives
	// max support J ≤ J(S).
	s := mustOpen(t, paperRelation(t))
	schemes, _, err := s.MineSchemes(context.Background(), WithEpsilon(0.3), WithMaxSchemes(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range schemes {
		for _, sup := range sc.Tree.Support() {
			if j := s.J(sup); j > sc.J+1e-9 {
				t.Fatalf("support MVD %v has J=%v > J(S)=%v", sup, j, sc.J)
			}
		}
	}
}
