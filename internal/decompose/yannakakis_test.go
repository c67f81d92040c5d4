package decompose

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/relation"
	"repro/internal/schema"
)

func TestDecomposeProjectsAllBags(t *testing.T) {
	r := paperR()
	d, err := Decompose(entropy.New(r), paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Projections) != 4 {
		t.Fatalf("%d projections", len(d.Projections))
	}
	if d.Cells() != 37 {
		t.Fatalf("Cells = %d", d.Cells())
	}
}

func TestLosslessDecompositionIsGloballyConsistent(t *testing.T) {
	// Projections of R are always globally consistent: every projected
	// tuple extends to a row of R, hence to a join result.
	for _, r := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
		d, err := Decompose(entropy.New(r), paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if !d.IsGloballyConsistent() {
			t.Fatal("projection decomposition must be globally consistent")
		}
	}
}

func TestFullReduceRemovesDanglingTuples(t *testing.T) {
	// Hand-build a decomposition with a dangling tuple: R1(A,B) has a
	// B value that never appears in R2(B,C).
	r1 := relation.MustFromRows([]string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a2", "b2"}, {"a3", "bX"},
	})
	r2 := relation.MustFromRows([]string{"B", "C"}, [][]string{
		{"b1", "c1"}, {"b2", "c2"},
	})
	// Build the tree manually via a covering schema over A(0),B(1),C(2).
	s := schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 2))
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		t.Fatal(err)
	}
	// Bags are sorted canonically: {0,1} then {1,2}.
	d := &Decomposition{Tree: tree, Projections: []*relation.Relation{r1, r2}}
	if d.IsGloballyConsistent() {
		t.Fatal("dangling tuple not detected")
	}
	red := d.FullReduce()
	if red.Projections[0].NumRows() != 2 {
		t.Fatalf("reduced R1 has %d rows, want 2", red.Projections[0].NumRows())
	}
	if red.Projections[1].NumRows() != 2 {
		t.Fatalf("reduced R2 has %d rows, want 2", red.Projections[1].NumRows())
	}
	// Reduction preserves the join size.
	if d.JoinSize() != red.JoinSize() {
		t.Fatalf("join size changed: %v vs %v", d.JoinSize(), red.JoinSize())
	}
}

func TestFullReducePreservesJoinRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		bags := []bitset.AttrSet{
			bitset.Of(0, 1, 2), bitset.Of(2, 3), bitset.Of(3, 4, 5),
		}
		r, s, err := datagen.Planted(datagen.PlantedSpec{
			Bags: bags, RootTuples: 10 + rng.Intn(10), ExtPerSep: 2,
			NoiseCells: 0.1, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decompose(entropy.New(r), s)
		if err != nil {
			t.Fatal(err)
		}
		red := d.FullReduce()
		if d.JoinSize() != red.JoinSize() {
			t.Fatalf("trial %d: reduction changed the join size", trial)
		}
		// Reduction is idempotent.
		again := red.FullReduce()
		for i := range red.Projections {
			if red.Projections[i].NumRows() != again.Projections[i].NumRows() {
				t.Fatalf("trial %d: reduction not idempotent", trial)
			}
		}
		// After reduction, every projection is no larger.
		for i := range d.Projections {
			if red.Projections[i].NumRows() > d.Projections[i].NumRows() {
				t.Fatalf("trial %d: reduction grew a projection", trial)
			}
		}
	}
}

func TestYannakakisJoinMatchesMaterializeJoin(t *testing.T) {
	for _, r := range []*relation.Relation{paperR(), paperRWithRedTuple()} {
		d, err := Decompose(entropy.New(r), paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		viaYannakakis := d.Join()
		viaPairwise, err := MaterializeJoin(r, paperSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if !viaYannakakis.Equal(viaPairwise) {
			t.Fatalf("join mismatch:\n%v\nvs\n%v", viaYannakakis, viaPairwise)
		}
		if float64(viaYannakakis.NumRows()) != d.JoinSize() {
			t.Fatalf("join has %d rows, counted %v", viaYannakakis.NumRows(), d.JoinSize())
		}
	}
}

func TestYannakakisJoinRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		bags := []bitset.AttrSet{
			bitset.Of(0, 1), bitset.Of(1, 2, 3), bitset.Of(3, 4),
		}
		r, s, err := datagen.Planted(datagen.PlantedSpec{
			Bags: bags, RootTuples: 8 + rng.Intn(8), ExtPerSep: 2,
			NoiseCells: 0.15, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decompose(entropy.New(r), s)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Join()
		want, err := MaterializeJoin(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: Yannakakis join differs from pairwise join", trial)
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	r := paperR()
	d, err := Decompose(entropy.New(r), paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d files written, want 4", len(entries))
	}
	// Read one back and check it equals the projection.
	back, err := relation.ReadCSVFile(filepath.Join(dir, "A_F.csv"), true)
	if err != nil {
		t.Fatal(err)
	}
	af, _ := bitset.Parse("AF")
	if !back.Equal(r.Project(af)) {
		t.Fatal("written projection differs")
	}
	if err := d.WriteCSVs(filepath.Join(dir, "missing-subdir")); err == nil {
		t.Fatal("writing into a missing directory should fail")
	}
}

// TestWriteCSVsEmptyValueInOneAttributeBag: a one-attribute bag holding an
// empty value is a CSV record of one empty field, which must not be lost.
func TestWriteCSVsEmptyValueInOneAttributeBag(t *testing.T) {
	r := relation.MustFromRows([]string{"A", "B"}, [][]string{{"x", ""}, {"y", "u"}})
	d, err := Decompose(entropy.New(r), schema.MustNew(bitset.Single(0), bitset.Single(1)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	back, err := relation.ReadCSVFile(filepath.Join(dir, "B.csv"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r.Project(bitset.Single(1))) {
		t.Fatalf("B.csv reads back as %d rows, want 2", back.NumRows())
	}
}

// TestWriteCSVsRejectsCollidingNames: bags {A,B} and {A_B} both join to
// "A_B.csv"; writing one over the other would lose a relation, so the
// call fails, naming both bags, and writes nothing.
func TestWriteCSVsRejectsCollidingNames(t *testing.T) {
	r := relation.MustFromRows([]string{"A", "B", "A_B"}, [][]string{{"x", "u", "1"}, {"y", "v", "2"}})
	d, err := Decompose(entropy.New(r), schema.MustNew(bitset.Of(0, 1), bitset.Single(2)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = d.WriteCSVs(dir)
	if err == nil {
		t.Fatal("colliding bag file names were written without an error")
	}
	msg := err.Error()
	for _, bag := range []string{"{A,B}", "{A_B}"} {
		if !strings.Contains(msg, bag) {
			t.Fatalf("error %q does not name bag %s", err, bag)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("%d files written before the collision was reported", len(entries))
	}
}

func TestSemijoinDisjointBags(t *testing.T) {
	r1 := relation.MustFromRows([]string{"A"}, [][]string{{"x"}, {"y"}})
	r2 := relation.MustFromRows([]string{"B"}, [][]string{{"u"}})
	got := semijoin(r1, bitset.Single(0), r2, bitset.Single(1), bitset.Empty())
	if got.NumRows() != 2 {
		t.Fatal("non-empty right side should keep everything")
	}
	empty := r2.Head(0)
	got = semijoin(r1, bitset.Single(0), empty, bitset.Single(1), bitset.Empty())
	if got.NumRows() != 0 {
		t.Fatal("empty right side should keep nothing")
	}
}
