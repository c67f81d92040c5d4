// Benchmarks regenerating every table and figure of the paper's
// evaluation (the package comment of internal/experiments is the
// experiment index), plus the ablations and micro-benchmarks of the core
// machinery.
//
// The table/figure benches run their experiment driver end to end with a
// scaled budget, so their reported time is the cost of reproducing the
// artifact, not of a single operation. Run them with:
//
//	go test -bench=. -benchmem
package maimon

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decompose"
	"repro/internal/entropy"
	"repro/internal/experiments"
	"repro/internal/fd"
	"repro/internal/info"
	"repro/internal/pli"
	"repro/internal/schema"
)

// benchCfg keeps figure benches bounded: small analogs, tight per-phase
// budgets, a short ε sweep.
func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:    500,
		Budget:   200 * time.Millisecond,
		Epsilons: []float64{0, 0.1, 0.3},
	}
}

func BenchmarkTable2_FullMVDMining(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if out := experiments.Table2(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig10_NurseryPareto(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = time.Second
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig10Nursery(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig11_NurseryAllSchemes(b *testing.B) {
	// Fig. 11 is the scatter over all schemes; the driver shared with
	// Fig. 10 produces both. Benchmarked separately at a wider sweep so
	// the scheme-collection cost dominates.
	cfg := benchCfg()
	cfg.Budget = 500 * time.Millisecond
	cfg.Epsilons = []float64{0, 0.05, 0.1, 0.2, 0.3}
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig10Nursery(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig12_SpuriousVsJ(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig12SpuriousVsJ(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig13_RowScalability(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = 100 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig13Rows(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig14_ColScalability(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = 100 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig14Cols(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig15_Quality(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = 100 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig15Quality(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig18_FullMVDs(b *testing.B) {
	cfg := benchCfg()
	cfg.Budget = 100 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig18FullMVDs(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkAblation_PairwiseConsistency(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if out := experiments.AblationPairwiseConsistency(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkAblation_EntropyEngine(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if out := experiments.AblationEntropyEngine(cfg); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- session benchmarks --------------------------------------------------

// BenchmarkSessionWarmVsCold measures the point of the Session API: the
// same relation mined at ε ∈ {0, 0.01, 0.1} through one warm session
// versus a fresh session per ε, each rebuilding the PLI cache and entropy
// memo from zero. The warm path should win by a wide margin — entropy
// computation is "the most expensive operation of Maimon".
func BenchmarkSessionWarmVsCold(b *testing.B) {
	r := datagen.Nursery().Head(3000)
	epsilons := []float64{0, 0.01, 0.1}
	ctx := context.Background()
	b.Run("cold-one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, eps := range epsilons {
				s, err := Open(r)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.MineSchemes(ctx, WithEpsilon(eps), WithMaxSchemes(20)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm-session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := Open(r)
			if err != nil {
				b.Fatal(err)
			}
			for _, eps := range epsilons {
				if _, _, err := s.MineSchemes(ctx, WithEpsilon(eps), WithMaxSchemes(20)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSessionSchemeSeq exercises the streaming surface end to end:
// schemes are consumed one by one off the iterator, with progress events
// flowing, as the CLI's -v path does.
func BenchmarkSessionSchemeSeq(b *testing.B) {
	r := datagen.Nursery().Head(3000)
	s, err := Open(r)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for sc, err := range s.SchemeSeq(ctx, WithEpsilon(0.1), WithMaxSchemes(20),
			WithProgress(func(Progress) { events++ })) {
			if err != nil {
				b.Fatal(err)
			}
			if sc != nil {
				count++
			}
		}
		if count == 0 {
			b.Fatal("no schemes streamed")
		}
	}
	if events == 0 {
		b.Fatal("no progress events")
	}
}

// BenchmarkParallelWarmMining measures the per-pair fan-out of the
// parallel pipeline over a warm session: phase 1 re-mined at increasing
// worker counts, all entropies already memoized, so the benchmark
// isolates the parallel search itself. On a multicore box the workers=4
// rung should approach a 4× speedup over workers=1; on a single-CPU
// container (GOMAXPROCS=1) the rungs stay flat and only measure fan-out
// overhead.
func BenchmarkParallelWarmMining(b *testing.B) {
	r := datagen.Nursery().Head(3000)
	s, err := Open(r)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.MineMVDs(ctx, WithEpsilon(0.1)); err != nil {
		b.Fatal(err) // warm the oracle once
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.MineMVDs(ctx, WithEpsilon(0.1), WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.MVDs) == 0 {
					b.Fatal("no MVDs mined")
				}
			}
		})
	}
}

// benchWide is the benchmark's `wide` relation (datagen.Ladder): 3,240
// rows × 13 columns, planted chain of 4-attribute bags, 1 % cell noise.
func benchWide(b *testing.B) *Relation {
	r, err := datagen.Ladder("wide")
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkColdMine is the cold path alone: one op opens a fresh Session
// on `wide` and mines its MVDs at ε = 0.1, so every one of the ≈ 7.9k
// entropies the search asks for is computed from partitions — the work
// the cold_wide workload spends its phase 1 in. -benchmem is the point:
// only the sets some blockwise chain reads back as an operand are
// materialised, every other entropy is a count pass on arena scratch, so
// B/op is the operands' bytes and not the lattice's.
func BenchmarkColdMine(b *testing.B) {
	r := benchWide(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(r)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.MineMVDs(ctx, WithEpsilon(0.1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MVDs) == 0 {
			b.Fatal("no MVDs mined")
		}
		s.Close()
	}
}

// BenchmarkPhase1Warm is the search kernel alone: the benchmark's `wide`
// relation (13 columns, planted chain, 1 % noise) on a warm session, so
// every entropy is a memo hit and no partition is intersected; what is
// timed and counted (-benchmem) is MineMinSeps → ReduceMinSep →
// SeparatorHolds → GetFullMVDs and the H lookups under them, at the
// three thresholds of the warm_sweep workload.
func BenchmarkPhase1Warm(b *testing.B) {
	s, err := Open(benchWide(b))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sweep := []float64{0.02, 0.05, 0.1}
	for _, eps := range sweep {
		if _, err := s.MineMVDs(ctx, WithEpsilon(eps)); err != nil {
			b.Fatal(err) // warm the oracle
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eps := range sweep {
			res, err := s.MineMVDs(ctx, WithEpsilon(eps))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.MVDs) == 0 {
				b.Fatal("no MVDs mined")
			}
		}
	}
}

// BenchmarkPhase2Warm is ASMiner alone: the MVDs phase 1 mines from the
// benchmark's `wide` relation at the warm_sweep thresholds, handed back
// to SchemesFromMVDs on the warm session with warm_sweep's cap of 100
// schemes. One op is the three phase-2 runs: the incompatibility-graph
// build over 925, 2,057 and 2,137 MVDs, then the enumeration and scheme
// synthesis; run it with -benchmem.
func BenchmarkPhase2Warm(b *testing.B) {
	s, err := Open(benchWide(b), WithMaxSchemes(100))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var sets [][]MVD
	for _, eps := range []float64{0.02, 0.05, 0.1} {
		res, err := s.MineMVDs(ctx, WithEpsilon(eps))
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, res.MVDs)
		if _, err := s.SchemesFromMVDs(ctx, res.MVDs); err != nil {
			b.Fatal(err) // warm the entropies J reads
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range sets {
			schemes, err := s.SchemesFromMVDs(ctx, ms)
			if err != nil {
				b.Fatal(err)
			}
			if len(schemes) == 0 {
				b.Fatal("no schemes")
			}
		}
	}
}

// BenchmarkAnalyzeRank is scheme ranking alone: the benchmark's `mid`
// relation (27k × 9, planted chain, 1 % noise) mined at ε = 0.1 for 30
// schemes, then one op ranks all 30 — the stage the tall_rank workload
// spends most of its time in. "cold" is the first ranking after a mine,
// what the CLI does: a fresh session per op, mined and its schemes
// enumerated with the timer stopped, then one Session.AnalyzeAll. "serial"
// and "batch" rank the schemes of one mined session again and again, with
// one Session.Analyze per scheme and with one AnalyzeAll. AnalyzeAll runs
// at GOMAXPROCS workers, so run with -cpu 1,2 to see what the second core
// buys. Nothing is cached between ranks: a batch groups each distinct bag
// and separator once, a single Analyze its own every call, so "serial"
// against "batch" is what sharing the class tables saves.
func BenchmarkAnalyzeRank(b *testing.B) {
	r, err := datagen.Ladder("mid")
	if err != nil {
		b.Fatal(err)
	}
	mine := func(b *testing.B) (*Session, []Schema) {
		s, err := Open(r)
		if err != nil {
			b.Fatal(err)
		}
		schemes, _, err := s.MineSchemes(context.Background(), WithEpsilon(0.1), WithMaxSchemes(30))
		if err != nil {
			b.Fatal(err)
		}
		if len(schemes) != 30 {
			b.Fatalf("%d schemes mined, want 30", len(schemes))
		}
		schemas := make([]Schema, len(schemes))
		for i, sc := range schemes {
			schemas[i] = sc.Schema
		}
		return s, schemas
	}
	batch := func(b *testing.B, s *Session, schemas []Schema) {
		_, errs := s.AnalyzeAll(context.Background(), schemas)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, schemas := mine(b)
			b.StartTimer()
			batch(b, s, schemas)
		}
	})
	s, schemas := mine(b)
	serial := func(b *testing.B, s *Session, schemas []Schema) {
		for _, sch := range schemas {
			if _, err := s.Analyze(sch); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, bc := range []struct {
		name string
		rank func(*testing.B, *Session, []Schema)
	}{{"serial", serial}, {"batch", batch}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.rank(b, s, schemas)
			}
		})
	}
}

// BenchmarkSessionMemoryBudget measures what eviction pressure costs a
// warm session: the same ε-sweep re-mined under an unlimited cache and
// under budgets of ⅛ and 1/64 of the workload's natural footprint. The
// entropy memo is never evicted, so warm re-mines largely ride it; the
// rungs quantify the residual PLI recompute (and, on big footprints, the
// GC relief a budget buys).
func BenchmarkSessionMemoryBudget(b *testing.B) {
	r := datagen.Nursery().Head(3000)
	ctx := context.Background()
	probe, err := Open(r)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := probe.MineMVDs(ctx, WithEpsilon(0.1)); err != nil {
		b.Fatal(err)
	}
	footprint := probe.Stats().PLIStats.BytesLive
	for _, div := range []int64{0, 8, 64} {
		budget := int64(0)
		name := "unlimited"
		if div > 0 {
			budget = footprint / div
			name = fmt.Sprintf("budget=1/%d", div)
		}
		b.Run(name, func(b *testing.B) {
			s, err := Open(r, WithMemoryBudget(budget))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.MineMVDs(ctx, WithEpsilon(0.1)); err != nil {
				b.Fatal(err) // warm the session once
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.MineMVDs(ctx, WithEpsilon(0.1))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.MVDs) == 0 {
					b.Fatal("no MVDs mined")
				}
			}
			b.StopTimer()
			st := s.Stats().PLIStats
			evictions := st.Drops + st.Demotions
			if budget > 0 && evictions == 0 {
				b.Fatalf("budget %d forced no evictions", budget)
			}
			b.ReportMetric(float64(evictions), "evictions")
			b.ReportMetric(float64(st.BytesLive), "bytes-live")
		})
	}
}

// --- micro-benchmarks of the core machinery -----------------------------

func benchNursery(b *testing.B) *Relation {
	b.Helper()
	return datagen.Nursery()
}

func BenchmarkMicro_EntropySingleSet(b *testing.B) {
	r := benchNursery(b)
	attrs := bitset.Of(0, 2, 4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := entropy.New(r) // cold oracle: measures the real PLI work
		_ = o.H(attrs)
	}
}

func BenchmarkMicro_EntropyCached(b *testing.B) {
	r := benchNursery(b)
	o := entropy.New(r)
	attrs := bitset.Of(0, 2, 4, 6)
	o.H(attrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.H(attrs)
	}
}

func BenchmarkMicro_PLIIntersect(b *testing.B) {
	r := benchNursery(b)
	pa := pli.SingleAttribute(r, 0)
	pb := pli.SingleAttribute(r, 1)
	a := pli.NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Intersect(pa, pb)
	}
}

// BenchmarkIntersect compares the two forms of the intersection engine
// (run with -benchmem):
//
//	arena        dense count-then-fill on a persistent arena, owned result
//	entropy-only streaming count, no partition materialized at all
func BenchmarkIntersect(b *testing.B) {
	r := benchNursery(b)
	pa := pli.SingleAttribute(r, 0)
	pb := pli.SingleAttribute(r, 1)
	a := pli.NewArena()
	b.Run("arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Intersect(pa, pb)
		}
	})
	b.Run("entropy-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.IntersectEntropy(pa, pb)
		}
	})
}

func BenchmarkMicro_MineMinSepsPair(b *testing.B) {
	r := benchNursery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(entropy.New(r), core.DefaultOptions(0.1))
		_ = m.MineMinSeps(0, 8)
	}
}

func BenchmarkMicro_GetFullMVDs(b *testing.B) {
	r := benchNursery(b)
	key := bitset.Of(1, 7) // has_nurs + health
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMiner(entropy.New(r), core.DefaultOptions(0.3))
		_ = m.GetFullMVDs(key, 0, 8)
	}
}

func BenchmarkMicro_JoinSizeCount(b *testing.B) {
	r := benchNursery(b)
	s, err := schema.New([]bitset.AttrSet{
		bitset.Of(0, 1, 2, 3, 7, 8),
		bitset.Of(3, 4, 5, 6, 7, 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	o := entropy.New(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decompose.Analyze(o, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_JMeasure(b *testing.B) {
	r := benchNursery(b)
	o := entropy.New(r)
	phi, err := ParseMVD("AB->CD|EFGHI")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = info.JMVD(o, phi)
	}
}

func BenchmarkMicro_FDMining(b *testing.B) {
	r := datagen.FunctionalChain(2000, 6, 5, 0.05, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fd.NewMiner(r).Mine()
	}
}

func BenchmarkMicro_CIExpansion(b *testing.B) {
	r := benchNursery(b)
	m := core.NewMiner(entropy.New(r), core.DefaultOptions(0.3))
	res, _ := m.MineMVDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ci.MinedToCI(res.MVDs)
	}
}

func BenchmarkMicro_FullReducer(b *testing.B) {
	r := benchNursery(b)
	s, err := schema.New([]bitset.AttrSet{
		bitset.Of(0, 1, 2, 3, 7, 8),
		bitset.Of(3, 4, 5, 6, 7, 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := decompose.Decompose(entropy.New(r), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.FullReduce()
	}
}

var hepSchemes struct {
	once   sync.Once
	oracle *entropy.Oracle
	mvds   []MVD
}

// BenchmarkMicro_SchemeEnumeration is phase 2 after the graph: one op
// enumerates schemes over a mined Mε. "nursery" is the first 50 schemes
// of Nursery at ε 0.3. "hep20_eps0" is the first 5,000 distinct schemes
// of the Hepatitis analog (155 × 20) at ε 0, where most compatible sets
// repeat a scheme; its Mε is mined, and the entropies J reads are warmed,
// once per test binary. Both report the compatible sets synthesized and
// the schemes emitted per op.
func BenchmarkMicro_SchemeEnumeration(b *testing.B) {
	b.Run("nursery", func(b *testing.B) {
		m := core.NewMiner(entropy.New(benchNursery(b)), core.DefaultOptions(0.3))
		res, _ := m.MineMVDs()
		benchEnumerate(b, m, res.MVDs, 50)
	})
	b.Run("hep20_eps0", func(b *testing.B) {
		hepSchemes.once.Do(func() {
			spec, err := datagen.Lookup("Hepatitis", 10000)
			if err != nil {
				panic(err)
			}
			hepSchemes.oracle = entropy.New(spec.Generate())
			m := core.NewMiner(hepSchemes.oracle, core.DefaultOptions(0))
			res, _ := m.MineMVDs()
			hepSchemes.mvds = res.MVDs
			m.EnumerateSchemes(res.MVDs, 5000, func(*core.Scheme) bool { return true })
		})
		benchEnumerate(b, core.NewMiner(hepSchemes.oracle, core.DefaultOptions(0)), hepSchemes.mvds, 5000)
	})
}

func benchEnumerate(b *testing.B, m *core.Miner, ms []MVD, limit int) {
	b.ReportAllocs()
	b.ResetTimer()
	var sets, schemes int64
	for i := 0; i < b.N; i++ {
		m.EnumerateSchemes(ms, limit, func(*core.Scheme) bool { return true })
		for _, st := range m.Trace().Phases[len(m.Trace().Phases)-1].Stages {
			if st.Name == "synth" {
				sets, schemes = sets+st.Calls, schemes+st.Items
			}
		}
	}
	b.ReportMetric(float64(sets)/float64(b.N), "sets/op")
	b.ReportMetric(float64(schemes)/float64(b.N), "schemes/op")
}
