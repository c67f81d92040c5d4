package decompose

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/relation"
	"repro/internal/schema"
)

// analyzeLiteral is the definition of the metrics, spelled out: remove
// duplicate rows, project every bag by grouping its rows, and count the
// join over the projected string values. Analyze is checked against it;
// nothing outside the tests ranks this way.
func analyzeLiteral(r *relation.Relation, s schema.Schema) (Metrics, error) {
	if s.Attrs() != r.AllAttrs() {
		return Metrics{}, fmt.Errorf("schema %v does not cover the relation", s)
	}
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		return Metrics{}, err
	}
	base := r.Dedup()
	n := base.NumRows()
	d := &Decomposition{Tree: tree, Projections: make([]*relation.Relation, len(tree.Bags))}
	for i, bag := range tree.Bags {
		d.Projections[i] = base.Project(bag)
	}
	joinSize := d.JoinSize()
	m := Metrics{
		Relations:       s.M(),
		Width:           s.Width(),
		IntWidth:        s.IntersectionWidth(),
		RowsOriginal:    n,
		CellsOriginal:   base.Cells(),
		CellsDecomposed: d.Cells(),
		JoinSize:        joinSize,
		Spurious:        joinSize - float64(n),
	}
	if m.CellsOriginal > 0 {
		m.SavingsPct = 100 * (1 - float64(m.CellsDecomposed)/float64(m.CellsOriginal))
	}
	if n > 0 {
		m.SpuriousPct = 100 * m.Spurious / float64(n)
	}
	return m, nil
}

// randomRelation draws a relation of 4–7 columns over small domains with a
// block of repeated rows; odd trials carry dictionaries, even ones are
// bare codes (whose cluster order is by code, not by first row).
func randomRelation(t *testing.T, rng *rand.Rand, trial int) *relation.Relation {
	t.Helper()
	cols := 4 + rng.Intn(4)
	rows := 20 + rng.Intn(60)
	names := make([]string, cols)
	codes := make([][]relation.Code, cols)
	for j := range codes {
		names[j] = string(rune('A' + j))
		dom := 2 + rng.Intn(4)
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(rng.Intn(dom))
		}
		codes[j] = col
	}
	for k := 0; k < rows/5; k++ { // duplicate rows
		src, dst := rng.Intn(rows), rng.Intn(rows)
		for j := range codes {
			codes[j][dst] = codes[j][src]
		}
	}
	if trial%2 == 0 {
		r, err := relation.FromCodes(names, codes)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, cols)
		for j := range codes {
			data[i][j] = fmt.Sprintf("x%d", codes[j][i])
		}
	}
	return relation.MustFromRows(names, data)
}

// TestAnalyzeMatchesLiteral is the differential test of the partition
// evaluator: on 40 random relations, every mined scheme plus hand-built
// schemas with a single bag, disjoint bags and a star must give Metrics
// equal — with ==, every field — to the literal definition, and a join
// size equal to the materialized join's row count.
func TestAnalyzeMatchesLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	mined := 0
	for trial := 0; trial < 40; trial++ {
		r := randomRelation(t, rng, trial)
		n := r.NumCols()
		o := entropy.New(r)
		schemas := []schema.Schema{
			schema.MustNew(bitset.Full(n)),
			schema.MustNew(bitset.Of(0, 1), bitset.Full(n).Diff(bitset.Of(0, 1))),
			schema.MustNew(bitset.Single(0), bitset.Of(1, 2), bitset.Full(n).Diff(bitset.Of(0, 1, 2))),
			schema.MustNew(bitset.Of(0, 1), bitset.Of(0, 2), bitset.Full(n).Diff(bitset.Of(1, 2))),
		}
		schemes, _ := core.NewMiner(o, core.DefaultOptions(0.4)).MineSchemes(20)
		for _, sc := range schemes {
			schemas = append(schemas, sc.Schema)
		}
		mined += len(schemes)
		for _, s := range schemas {
			got, err := Analyze(o, s)
			if err != nil {
				t.Fatalf("trial %d, %v: %v", trial, s, err)
			}
			want, err := analyzeLiteral(r, s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d, %v:\n got  %+v\n want %+v", trial, s, got, want)
			}
			if got.JoinSize <= 5000 {
				joined, err := MaterializeJoin(r, s)
				if err != nil {
					t.Fatal(err)
				}
				if float64(joined.NumRows()) != got.JoinSize {
					t.Fatalf("trial %d, %v: counted %v, materialized %d", trial, s, got.JoinSize, joined.NumRows())
				}
			}
		}
	}
	if mined < 40 {
		t.Fatalf("only %d mined schemes exercised", mined)
	}
}

// TestDecomposeMatchesProject: the projections Decompose selects out of
// the partitions are the ones grouping produces, row for row — the CSVs
// written from them are byte-identical.
func TestDecomposeMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		r := randomRelation(t, rng, trial)
		n := r.NumCols()
		s := schema.MustNew(bitset.Of(0, 1, 2), bitset.Of(0, 3), bitset.Full(n).Diff(bitset.Of(1, 2)))
		d, err := Decompose(entropy.New(r), s)
		if err != nil {
			t.Fatal(err)
		}
		base := r.Dedup()
		for i, bag := range d.Tree.Bags {
			var got, want bytes.Buffer
			if err := d.Projections[i].WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := base.Project(bag).WriteCSV(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d, bag %v: CSV differs\n got:\n%s\n want:\n%s", trial, bag, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestValueKeysAreInjective: values may contain any byte, NUL included.
// ("a\x00","b") and ("a","\x00b") are different separator values; keys
// built by terminating each value with NUL made them equal, and the
// semijoin, the join and the count then matched tuples that differ.
func TestValueKeysAreInjective(t *testing.T) {
	left := relation.MustFromRows([]string{"A", "B", "C"}, [][]string{{"a\x00", "b", "l"}})
	right := relation.MustFromRows([]string{"A", "B", "D"}, [][]string{{"a", "\x00b", "r"}})
	tree, err := schema.BuildJoinTree(schema.MustNew(bitset.Of(0, 1, 2), bitset.Of(0, 1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	d := &Decomposition{Tree: tree, Projections: []*relation.Relation{left, right}}
	if got := d.JoinSize(); got != 0 {
		t.Fatalf("JoinSize = %v: tuples with different separator values were matched", got)
	}
	if got := d.Join().NumRows(); got != 0 {
		t.Fatalf("Join has %d rows, want 0", got)
	}
	if d.IsGloballyConsistent() {
		t.Fatal("both tuples dangle, yet the full reducer kept them")
	}
}
