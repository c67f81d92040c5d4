package maimon

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/schema"
)

// rankingInput is a planted chain with noise, and the schema planted in
// it: wide enough that a mine fills the PLI cache with multi-attribute
// partitions to evict, small enough for -race.
func rankingInput(t testing.TB, rootTuples int) (*Relation, Schema) {
	t.Helper()
	r, sch, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(9, 3, 1), Domain: 12, RootTuples: rootTuples, ExtPerSep: 3, NoiseCells: 0.01, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, sch
}

func mineForRanking(t testing.TB, s *Session, eps float64, max int) []*Scheme {
	t.Helper()
	schemes, _, err := s.MineSchemes(context.Background(), WithEpsilon(eps), WithMaxSchemes(max))
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) == 0 {
		t.Fatal("no schemes mined")
	}
	return schemes
}

// TestAnalyzeBudgetInvariance: Analyze reads its partitions through the
// budgeted, spill-backed PLI cache, so a session squeezed to ⅛ of the
// footprint — evicting, demoting and promoting while it ranks — must
// report Metrics equal (==) to an unlimited session's on every scheme.
func TestAnalyzeBudgetInvariance(t *testing.T) {
	r, _ := rankingInput(t, 150)
	free, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemes := mineForRanking(t, free, 0.1, 40)
	want := make([]Metrics, len(schemes))
	for i, sc := range schemes {
		if want[i], err = free.Analyze(sc.Schema); err != nil {
			t.Fatal(err)
		}
	}
	budget := free.Stats().PLIStats.BytesLive / 8
	if budget < 1 {
		t.Fatal("reference footprint too small to squeeze")
	}

	tight, err := Open(r, WithMemoryBudget(budget), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer tight.Close()
	mineForRanking(t, tight, 0.1, 40)
	for pass := 0; pass < 2; pass++ {
		for i, sc := range schemes {
			got, err := tight.Analyze(sc.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("pass %d, %v:\n tight %+v\n free  %+v", pass, sc.Schema, got, want[i])
			}
		}
	}
	st := tight.Stats().PLIStats
	if st.Drops+st.Demotions == 0 {
		t.Fatal("the squeezed session never evicted: the budget path was not exercised")
	}
	if st.BytesLive > budget {
		t.Fatalf("cache rests at %d bytes, over its %d budget: ranking pinned partitions", st.BytesLive, budget)
	}
}

// TestAnalyzeConcurrent: maimond ranks the schemes of parallel jobs on one
// session. Eight goroutines analyze every scheme at once — under a budget,
// so fetches race with evictions — and each must see the serial answer.
func TestAnalyzeConcurrent(t *testing.T) {
	r, _ := rankingInput(t, 60)
	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemes := mineForRanking(t, ref, 0.1, 20)
	want := make([]Metrics, len(schemes))
	for i, sc := range schemes {
		if want[i], err = ref.Analyze(sc.Schema); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(r, WithMemoryBudget(ref.Stats().PLIStats.BytesLive/4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range schemes {
				i := (k + g) % len(schemes)
				got, err := s.Analyze(schemes[i].Schema)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, %v:\n got  %+v\n want %+v", g, schemes[i].Schema, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rankingBatch is the schemas of the mined schemes, with a cyclic schema at
// index 2 and one that misses attribute 8 at the end: the two schemas
// Analyze rejects.
func rankingBatch(schemes []*Scheme) (schemas []Schema, rejected map[int]bool) {
	for _, sc := range schemes {
		schemas = append(schemas, sc.Schema)
	}
	// With attributes 3–8 removed as ears, {0,1} {1,2} {0,2} is a cycle.
	cyclic := schema.MustNew(bitset.Of(0, 1, 3, 4, 5, 6, 7, 8), bitset.Of(1, 2), bitset.Of(0, 2))
	short := schema.MustNew(bitset.Of(0, 1, 2, 3, 4), bitset.Of(4, 5, 6, 7))
	schemas = slices.Insert(schemas, 2, cyclic)
	schemas = append(schemas, short)
	return schemas, map[int]bool{2: true, len(schemas) - 1: true}
}

// analyzeEach ranks schemas one Analyze call at a time.
func analyzeEach(s *Session, schemas []Schema) ([]Metrics, []error) {
	mets := make([]Metrics, len(schemas))
	errs := make([]error, len(schemas))
	for i, sch := range schemas {
		mets[i], errs[i] = s.Analyze(sch)
	}
	return mets, errs
}

// checkBatch fails t unless a batch's metrics equal (==) the per-scheme
// ones and each error sits at its own index.
func checkBatch(t testing.TB, label string, gotMets, wantMets []Metrics, gotErrs, wantErrs []error) {
	t.Helper()
	if len(gotMets) != len(wantMets) || len(gotErrs) != len(wantErrs) {
		t.Errorf("%s: %d metrics and %d errors for %d schemas", label, len(gotMets), len(gotErrs), len(wantMets))
		return
	}
	for i := range wantMets {
		if (gotErrs[i] == nil) != (wantErrs[i] == nil) ||
			gotErrs[i] != nil && gotErrs[i].Error() != wantErrs[i].Error() {
			t.Errorf("%s: schema %d: error %v, want %v", label, i, gotErrs[i], wantErrs[i])
		}
		if gotMets[i] != wantMets[i] {
			t.Errorf("%s: schema %d:\n got  %+v\n want %+v", label, i, gotMets[i], wantMets[i])
		}
	}
}

// TestAnalyzeAllMatchesAnalyze: a batch ranked at any fan-out, on a plain
// session and on one squeezed to ⅛ of the footprint with a spill tier,
// equals Analyze scheme by scheme, with the cyclic and the non-covering
// schema's errors at their own indices. Each session ranks cold first, at
// 4 workers, so the workers build the bag partitions concurrently.
func TestAnalyzeAllMatchesAnalyze(t *testing.T) {
	r, _ := rankingInput(t, 150)
	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemas, rejected := rankingBatch(mineForRanking(t, ref, 0.1, 40))
	wantMets, wantErrs := analyzeEach(ref, schemas)
	for i, err := range wantErrs {
		if (err != nil) != rejected[i] {
			t.Fatalf("schema %d: Analyze error %v, want one: %v", i, err, rejected[i])
		}
	}
	budget := ref.Stats().PLIStats.BytesLive / 8

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"budget/8+spill", []Option{WithMemoryBudget(budget), WithSpillDir(t.TempDir())}},
	} {
		s, err := Open(r, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		mineForRanking(t, s, 0.1, 40)
		for _, w := range []int{4, 1} {
			mets, errs := s.AnalyzeAll(context.Background(), schemas, WithWorkers(w))
			checkBatch(t, fmt.Sprintf("%s, workers %d", tc.name, w), mets, wantMets, errs, wantErrs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzeAllConcurrent: two sessions, one under a budget so fetches
// race with evictions, each rank the batch from two goroutines at once at
// 4 workers per batch; every batch must equal the serial answer.
func TestAnalyzeAllConcurrent(t *testing.T) {
	r, _ := rankingInput(t, 60)
	ref, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemas, _ := rankingBatch(mineForRanking(t, ref, 0.1, 20))
	wantMets, wantErrs := analyzeEach(ref, schemas)
	plain, err := Open(r)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Open(r, WithMemoryBudget(ref.Stats().PLIStats.BytesLive/4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, s := range []*Session{plain, tight, plain, tight} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mets, errs := s.AnalyzeAll(context.Background(), schemas, WithWorkers(4))
			checkBatch(t, "concurrent batch", mets, wantMets, errs, wantErrs)
		}()
	}
	wg.Wait()
}

// TestSchemeJBoundsSpuriousRate ties the two measures of a scheme's loss
// together (ROADMAP §4): for a duplicate-free relation R with N rows and an
// acyclic schema S with join tree T,
//
//	J(T) ≤ log2(1 + ρ),   ρ = (|⋈ R[Ωi]| − N) / N,
//
// the lower bound on loss that Kenig and Weinberger, "Quantifying the Loss
// of Acyclic Join Dependencies" (arXiv 2210.14572; PAPERS.md), derive
// before their probabilistic upper bounds. The argument is two lines: the
// tree-factorized distribution P^T has P's marginals on every bag and
// separator, so H(P^T) = Σ H(Ωi) − Σ H(Δi) = J(T) + H(Ω) = J(T) + log2 N;
// its support is the join, N(1+ρ) tuples, so H(P^T) ≤ log2 N + log2(1+ρ).
// Duplicate rows break H(Ω) = log2 N, hence the duplicate-free inputs.
// J comes from the miner's entropies, ρ from AnalyzeAll's class count: two
// code paths that agree only if both are right. Besides nursery and a
// planted chain it runs at the benchmark's width, on the 13-column `wide`
// relation deduplicated, at three ε with every mined scheme up to the
// benchmark's cap of 100 ranked in one batch per ε. The Ditag Feature
// analog (13 columns, two derived from base columns, so exact FDs hold;
// 10,000 rows before dedup) runs at ε = 0, where those FDs shape every
// mined scheme, and at 0.1. ε = 0 may mine only lossless schemes, so a
// lossy one is required per relation, not per ε.
func TestSchemeJBoundsSpuriousRate(t *testing.T) {
	planted, _ := rankingInput(t, 300)
	wide, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	ditag, err := datagen.Lookup("Ditag Feature", 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *Relation
		eps  []float64
		max  int
	}{
		{"nursery", Nursery(), []float64{0.3}, 60},
		{"planted", planted.Dedup(), []float64{0.1}, 60},
		{"wide", wide.Dedup(), []float64{0, 0.1, 0.3}, 100},
		{"ditag", ditag.Generate().Dedup(), []float64{0, 0.1}, 100},
	} {
		s, err := Open(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		lossy, ranked := 0, 0
		for _, eps := range tc.eps {
			schemes := mineForRanking(t, s, eps, tc.max)
			ranked += len(schemes)
			schemas := make([]Schema, len(schemes))
			for i, sc := range schemes {
				schemas[i] = sc.Schema
			}
			mets, errs := s.AnalyzeAll(context.Background(), schemas)
			for i, sc := range schemes {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				met := mets[i]
				if met.RowsOriginal != tc.r.NumRows() {
					t.Fatalf("%s: input has duplicate rows", tc.name)
				}
				bound := math.Log2(1 + met.Spurious/float64(met.RowsOriginal))
				if sc.J > bound+1e-9 {
					t.Fatalf("%s, ε = %v, %v: J = %v bits exceeds log2(1+ρ) = %v (ρ = %v)",
						tc.name, eps, sc.Schema, sc.J, bound, met.Spurious/float64(met.RowsOriginal))
				}
				if met.Spurious > 0 {
					lossy++
				}
			}
		}
		t.Logf("%s: %d of %d schemes lossy", tc.name, lossy, ranked)
		if lossy == 0 {
			t.Fatalf("%s: every scheme is lossless; the bound was not exercised", tc.name)
		}
	}
}

// TestAnalyzeAllocs gates the ranking loop's allocations: a warm Analyze
// allocates the join tree and its traversal — a few small slices per bag —
// and nothing per row. The scratch (row → class ids, class arrays,
// messages) is pooled, the partitions are cache hits. Checked at 1k and at
// 30k rows of the same planted shape and schema.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch; the ceiling holds only without it")
	}
	var small float64
	for _, rootTuples := range []int{40, 1100} {
		r, sch := rankingInput(t, rootTuples)
		s, err := Open(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Analyze(sch); err != nil {
			t.Fatal(err) // builds the partitions, sizes the scratch
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Analyze(sch); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows, %d bags: %.1f allocs per Analyze", r.NumRows(), sch.M(), allocs)
		if limit := float64(12 * sch.M()); allocs > limit {
			t.Fatalf("%d rows: %.1f allocs per warm Analyze, want at most %.0f (12 per bag)", r.NumRows(), allocs, limit)
		}
		if small == 0 {
			small = allocs
		} else if allocs > small+2 {
			t.Fatalf("allocations grow with rows: %.1f at %d rows against %.1f at the small size", allocs, r.NumRows(), small)
		}
	}
}
