package decompose

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/pli"
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

// mineSchemes mines o's relation at ε 0.4, both phases, and collects up
// to limit schemes.
func mineSchemes(o *entropy.Oracle, limit int) []*core.Scheme {
	m := core.NewMiner(o, core.DefaultOptions(0.4))
	var out []*core.Scheme
	res, _ := m.MineMVDs()
	m.EnumerateSchemes(res.MVDs, limit, func(s *core.Scheme) bool {
		out = append(out, s)
		return true
	})
	return out
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
		schemes := mineSchemes(o, 20)
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

// TestAnalyzeAllBatch ranks batches that share their tables: every mined
// scheme of a random relation, a schema repeated, hand-built schemas whose
// bags the mined ones share, and a non-covering and a cyclic schema in the
// middle. At 1 and 4 workers the errors land at their indexes and every
// other Metrics equals the literal definition, with a join size equal to
// the materialized join's; and ranking the mined schemes leaves the PLI
// cache's live bytes and entries where the mine left them, because no
// class table is published.
func TestAnalyzeAllBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 20; trial++ {
		r := randomRelation(t, rng, trial)
		n := r.NumCols()
		o := entropy.New(r)
		schemes := mineSchemes(o, 20)
		var mined []schema.Schema
		for _, sc := range schemes {
			mined = append(mined, sc.Schema)
		}
		before := o.Stats().PLIStats
		AnalyzeAll(context.Background(), o, mined, 4)
		if after := o.Stats().PLIStats; after.BytesLive != before.BytesLive || after.Entries != before.Entries {
			t.Fatalf("trial %d: ranking %d mined schemes moved the cache from %d entries, %d B live to %d, %d B",
				trial, len(mined), before.Entries, before.BytesLive, after.Entries, after.BytesLive)
		}

		rest := bitset.Full(n).Diff(bitset.Of(0, 1, 2))
		pair := schema.MustNew(bitset.Of(0, 1), bitset.Full(n).Diff(bitset.Of(0)))
		batch := []schema.Schema{
			schema.MustNew(bitset.Full(n)),
			pair,
			schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(0, 2).Union(rest)), // cyclic
			schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2).Union(rest)),
			schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 2)), // covers 3 attributes
			pair,
			schema.MustNew(bitset.Of(0, 1, 2), bitset.Of(2).Union(rest)),
		}
		batch = append(batch, mined...)
		rejected := map[int]bool{2: true, 4: true}
		// No budget ranks the batch over one set of tables; 1 byte, one
		// schema per run; 20 tables' worth, runs of a few schemas.
		for _, budget := range []int64{0, 1, 80 * int64(r.NumRows())} {
			for _, workers := range []int{1, 4} {
				cfg := pli.DefaultConfig()
				cfg.MaxBytes = budget
				mets, errs := AnalyzeAll(context.Background(), entropy.NewShared(r, cfg), batch, workers)
				for i, s := range batch {
					if (errs[i] != nil) != rejected[i] {
						t.Fatalf("trial %d, budget %d, workers %d, schema %d %v: error %v", trial, budget, workers, i, s, errs[i])
					}
					if rejected[i] {
						if mets[i] != (Metrics{}) {
							t.Fatalf("trial %d, budget %d, workers %d: rejected schema %d has metrics %+v", trial, budget, workers, i, mets[i])
						}
						continue
					}
					want, err := analyzeLiteral(r, s)
					if err != nil {
						t.Fatal(err)
					}
					if mets[i] != want {
						t.Fatalf("trial %d, budget %d, workers %d, %v:\n got  %+v\n want %+v", trial, budget, workers, s, mets[i], want)
					}
					if budget != 0 || workers != 1 {
						continue
					}
					if want.JoinSize <= 5000 {
						joined, err := MaterializeJoin(r, s)
						if err != nil {
							t.Fatal(err)
						}
						if float64(joined.NumRows()) != want.JoinSize {
							t.Fatalf("trial %d, %v: counted %v, materialized %d", trial, s, want.JoinSize, joined.NumRows())
						}
					}
				}
			}
		}
	}
}

// TestAnalyzeAllStops ranks the schemes of the 13-column `wide` relation
// at ε 0.1 under a context that is done before the call, and under
// deadlines that fall at a quarter, a half and three quarters of an
// unstopped ranking's time. A cancelled call ranks nothing: every schema
// has zero Metrics and context.Canceled. Under a deadline every schema
// has either the unstopped run's metrics or context.DeadlineExceeded. A
// 1-byte cache budget ranks one schema per run of tables, so a deadline
// falls between runs as well as inside one.
func TestAnalyzeAllStops(t *testing.T) {
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	o := entropy.New(r)
	m := core.NewMiner(o, core.DefaultOptions(0.1))
	var schemas []schema.Schema
	res, _ := m.MineMVDs()
	m.EnumerateSchemes(res.MVDs, 200, func(s *core.Scheme) bool {
		schemas = append(schemas, s.Schema)
		return true
	})
	if len(schemas) < 50 {
		t.Fatalf("mined %d schemes, want at least 50", len(schemas))
	}
	oracle := func() *entropy.Oracle {
		cfg := pli.DefaultConfig()
		cfg.MaxBytes = 1
		return entropy.NewShared(r, cfg)
	}
	start := time.Now()
	want, errs := AnalyzeAll(context.Background(), oracle(), schemas, 2)
	took := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("unstopped: schema %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mets, errs := AnalyzeAll(ctx, oracle(), schemas, 2)
	for i := range schemas {
		if errs[i] != context.Canceled || mets[i] != (Metrics{}) {
			t.Fatalf("cancelled: schema %d has %+v, error %v", i, mets[i], errs[i])
		}
	}

	for _, frac := range []float64{0.25, 0.5, 0.75} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(frac*float64(took)))
		mets, errs := AnalyzeAll(ctx, oracle(), schemas, 2)
		cancel()
		ranked := 0
		for i := range schemas {
			switch {
			case errs[i] == nil && mets[i] == want[i]:
				ranked++
			case !errors.Is(errs[i], context.DeadlineExceeded) || mets[i] != (Metrics{}):
				t.Fatalf("deadline at %v of %v: schema %d has %+v, error %v; unstopped %+v", frac, took, i, mets[i], errs[i], want[i])
			}
		}
		t.Logf("deadline at %v of %v: %d of %d schemas ranked", frac, took, ranked, len(schemas))
	}
}

// TestChunkEndFitsBudget: under a budget every run of trees AnalyzeAll
// ranks together holds at most budget bytes of tables at 4 bytes a row
// per distinct bag and separator, unless it is a single tree, and the runs
// tile the batch; with no budget the batch is one run.
func TestChunkEndFitsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	split := 0 // runs past the first at one table's budget
	for trial := 0; trial < 10; trial++ {
		r := randomRelation(t, rng, trial)
		schemes := mineSchemes(entropy.New(r), 30)
		trees := []*schema.JoinTree{nil}
		for _, sc := range schemes {
			tree, err := schema.BuildJoinTree(sc.Schema)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree, nil)
		}
		rows := r.NumRows()
		if hi := chunkEnd(trees, 0, rows, 0); hi != len(trees) {
			t.Fatalf("trial %d: no budget ends the first run at %d of %d", trial, hi, len(trees))
		}
		for _, tables := range []int64{1, 3, 8, 1000} {
			budget := tables * 4 * int64(rows)
			for lo := 0; lo < len(trees); {
				hi := chunkEnd(trees, lo, rows, budget)
				sets := map[bitset.AttrSet]bool{}
				built := 0
				for _, tree := range trees[lo:hi] {
					if tree != nil {
						built++
						eachTableSet(tree, func(set bitset.AttrSet, _ pli.ClassView) { sets[set] = true })
					}
				}
				if hi <= lo || (built > 1 && int64(len(sets)) > tables) {
					t.Fatalf("trial %d, %d tables: run [%d, %d) has %d trees and %d tables", trial, tables, lo, hi, built, len(sets))
				}
				if tables == 1 && lo > 0 {
					split++
				}
				lo = hi
			}
		}
	}
	if split == 0 {
		t.Fatal("no batch was split into runs")
	}
}
