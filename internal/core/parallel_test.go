package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/mvd"
	"repro/internal/pli"
	"repro/internal/relation"
)

// parallelTestRelations are the seeded datasets the determinism suite
// mines: the planted acyclic join (exact MVDs), the same with noise
// (approximate), the nursery reconstruction, and a random relation.
func parallelTestRelations(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	rels := make(map[string]*relation.Relation)
	planted, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(10, 4, 1), Seed: 11, RootTuples: 12, ExtPerSep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels["planted"] = planted
	noisy, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(9, 4, 2), Seed: 5, RootTuples: 10, ExtPerSep: 2, NoiseCells: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels["planted-noisy"] = noisy
	rels["nursery"] = datagen.Nursery().Head(1200)
	rels["uniform"] = datagen.Uniform(400, 7, 3, 42)
	return rels
}

func shared(r *relation.Relation) *entropy.Oracle {
	return entropy.NewShared(r, pli.DefaultConfig())
}

// minedWith mines r end to end (phase 1 plus scheme enumeration) with the
// given worker count over a fresh shared oracle and returns everything a
// determinism comparison needs.
func minedWith(r *relation.Relation, eps float64, workers int) (*MVDResult, []string, error) {
	opts := DefaultOptions(eps)
	opts.Workers = workers
	m := NewMiner(shared(r), opts)
	res, err := m.MineMVDs()
	var schemes []string
	m.EnumerateSchemes(res.MVDs, 40, func(s *Scheme) bool {
		schemes = append(schemes, s.Schema.Fingerprint())
		return true
	})
	return res, schemes, err
}

// TestParallelMatchesSerial is the determinism contract of the parallel
// pipeline: workers=1 and workers=8 must produce identical MVDs (order
// included), identical per-pair minimal separators, identical NumMinSeps,
// and an identical scheme stream.
func TestParallelMatchesSerial(t *testing.T) {
	for name, r := range parallelTestRelations(t) {
		for _, eps := range []float64{0, 0.1} {
			serialRes, serialSchemes, serialErr := minedWith(r, eps, 1)
			parRes, parSchemes, parErr := minedWith(r, eps, 8)
			if serialErr != nil || parErr != nil {
				t.Fatalf("%s eps=%v: unexpected errors %v / %v", name, eps, serialErr, parErr)
			}
			if len(parRes.MVDs) != len(serialRes.MVDs) {
				t.Fatalf("%s eps=%v: %d parallel MVDs vs %d serial", name, eps, len(parRes.MVDs), len(serialRes.MVDs))
			}
			for i := range serialRes.MVDs {
				if !parRes.MVDs[i].Equal(serialRes.MVDs[i]) {
					t.Fatalf("%s eps=%v: MVD %d differs: %v vs %v", name, eps, i, parRes.MVDs[i], serialRes.MVDs[i])
				}
			}
			if !reflect.DeepEqual(parRes.MinSeps, serialRes.MinSeps) {
				t.Fatalf("%s eps=%v: MinSeps maps differ", name, eps)
			}
			if parRes.NumMinSeps() != serialRes.NumMinSeps() {
				t.Fatalf("%s eps=%v: NumMinSeps %d vs %d", name, eps, parRes.NumMinSeps(), serialRes.NumMinSeps())
			}
			if !reflect.DeepEqual(parSchemes, serialSchemes) {
				t.Fatalf("%s eps=%v: scheme streams differ (%d vs %d)", name, eps, len(parSchemes), len(serialSchemes))
			}
		}
	}
}

// TestParallelMatchesSerialUnderMemoryBudget re-runs the determinism
// contract with the PLI cache squeezed hard enough to evict mid-mine:
// the worker fan-out over a budgeted oracle must still produce exactly
// what an unlimited serial mine does — eviction only ever forces
// recomputation, and recomputed partitions are bit-identical.
func TestParallelMatchesSerialUnderMemoryBudget(t *testing.T) {
	budgeted := func(r *relation.Relation, maxBytes int64) *entropy.Oracle {
		cfg := pli.DefaultConfig()
		cfg.MaxBytes = maxBytes
		return entropy.NewShared(r, cfg)
	}
	for name, r := range parallelTestRelations(t) {
		for _, eps := range []float64{0, 0.1} {
			serialRes, serialSchemes, err := minedWith(r, eps, 1)
			if err != nil {
				t.Fatalf("%s eps=%v: serial error %v", name, eps, err)
			}
			// Learn the unlimited footprint, then re-mine parallel at an
			// eighth of it — tight enough to churn on every dataset.
			probe := budgeted(r, 0)
			opts := DefaultOptions(eps)
			opts.Workers = 1
			NewMiner(probe, opts).MineMVDs()
			budget := probe.Stats().PLIStats.BytesLive / 8
			if budget < 1 {
				budget = 1
			}

			o := budgeted(r, budget)
			popts := DefaultOptions(eps)
			popts.Workers = 8
			m := NewMiner(o, popts)
			parRes, err := m.MineMVDs()
			if err != nil {
				t.Fatalf("%s eps=%v: budgeted parallel error %v", name, eps, err)
			}
			var parSchemes []string
			m.EnumerateSchemes(parRes.MVDs, 40, func(s *Scheme) bool {
				parSchemes = append(parSchemes, s.Schema.Fingerprint())
				return true
			})
			if len(parRes.MVDs) != len(serialRes.MVDs) {
				t.Fatalf("%s eps=%v: %d budgeted-parallel MVDs vs %d serial", name, eps, len(parRes.MVDs), len(serialRes.MVDs))
			}
			for i := range serialRes.MVDs {
				if !parRes.MVDs[i].Equal(serialRes.MVDs[i]) {
					t.Fatalf("%s eps=%v: MVD %d differs under eviction", name, eps, i)
				}
			}
			if !reflect.DeepEqual(parRes.MinSeps, serialRes.MinSeps) {
				t.Fatalf("%s eps=%v: MinSeps maps differ under eviction", name, eps)
			}
			if !reflect.DeepEqual(parSchemes, serialSchemes) {
				t.Fatalf("%s eps=%v: scheme streams differ under eviction", name, eps)
			}
			// budget < footprint, so the budgeted run must have crossed it
			// at least once — the comparison above really ran under churn.
			if st := o.Stats().PLIStats; st.Drops+st.Demotions == 0 {
				t.Fatalf("%s eps=%v: budget %d forced no evictions (footprint %d)", name, eps, budget, budget*8)
			}
		}
	}
}

// TestParallelMinSepsAllMatchesSerial covers the separator-only phase.
func TestParallelMinSepsAllMatchesSerial(t *testing.T) {
	r := datagen.Nursery().Head(1500)
	for _, eps := range []float64{0, 0.2} {
		serial, serialErr := NewMiner(shared(r), func() Options { o := DefaultOptions(eps); o.Workers = 1; return o }()).MineMinSepsAll()
		opts := DefaultOptions(eps)
		opts.Workers = 6
		par, parErr := NewMiner(shared(r), opts).MineMinSepsAll()
		if serialErr != nil || parErr != nil {
			t.Fatalf("eps=%v: unexpected errors %v / %v", eps, serialErr, parErr)
		}
		if !reflect.DeepEqual(par.MinSeps, serial.MinSeps) {
			t.Fatalf("eps=%v: MinSeps differ", eps)
		}
	}
}

// TestOneWorkerReadsThroughLocal: a one-worker mine over an oracle —
// what every `maimond -mine-workers 1` fleet worker runs — reads H through
// a worker-local view while the pairs are mined, leaves the miner its own
// source, and leaves the oracle's counters exactly where a fan-out of
// eight leaves them. A view holds its MI count until it is released, so
// no MI call reaches the oracle's counters before the phase ends.
func TestOneWorkerReadsThroughLocal(t *testing.T) {
	r := datagen.Nursery().Head(800)
	mine := func(workers int) entropy.Stats {
		o := shared(r)
		opts := DefaultOptions(0.1)
		opts.Workers = workers
		if workers == 1 {
			opts.Progress = func(p Progress) {
				if mi := o.Stats().MICalls; p.PairsDone > 0 && mi != 0 {
					t.Errorf("pair %d: %d MI calls counted on the oracle mid-phase, want them on a worker-local view", p.PairsDone, mi)
				}
			}
		}
		m := NewMiner(o, opts)
		if res, err := m.MineMVDs(); err != nil || len(res.MVDs) == 0 {
			t.Fatalf("workers=%d: mine failed: %v", workers, err)
		}
		if m.src != source(o) {
			t.Errorf("workers=%d: miner left reading through %T after the phase", workers, m.src)
		}
		return o.Stats()
	}
	one, eight := mine(1), mine(8)
	if one.HCalls != eight.HCalls || one.HCached != eight.HCached || one.MICalls != eight.MICalls {
		t.Fatalf("one worker counted H %d / cached %d / MI %d, eight counted %d / %d / %d",
			one.HCalls, one.HCached, one.MICalls, eight.HCalls, eight.HCached, eight.MICalls)
	}
}

// TestParallelCancellation cancels mid-mine and expects a prompt stop
// with context.Canceled, valid partial results, and no goroutine leak
// (the driver joins its pool before returning).
func TestParallelCancellation(t *testing.T) {
	r := datagen.Nursery()
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions(0.3)
	opts.Workers = 4
	events := 0
	opts.Progress = func(p Progress) {
		events++
		if p.PairsDone >= 2 {
			cancel()
		}
	}
	m := NewMiner(shared(r), opts).WithContext(ctx)
	_, err := m.MineMVDs()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events == 0 {
		t.Fatal("no progress events before cancellation")
	}
}

// TestParallelProgressAggregation checks the aggregated event stream:
// PairsDone reaches PairsTotal exactly once each value, and the final
// cumulative counters match the result.
func TestParallelProgressAggregation(t *testing.T) {
	r := datagen.Nursery().Head(1000)
	opts := DefaultOptions(0.1)
	opts.Workers = 4
	var last Progress
	var doneSeen []int
	opts.Progress = func(p Progress) {
		if p.PairsDone > 0 {
			doneSeen = append(doneSeen, p.PairsDone)
		}
		last = p
	}
	m := NewMiner(shared(r), opts)
	res, err := m.MineMVDs()
	if err != nil {
		t.Fatal(err)
	}
	total := 9 * 8 / 2
	if last.PairsDone != total || last.PairsTotal != total {
		t.Fatalf("final event %d/%d, want %d/%d", last.PairsDone, last.PairsTotal, total, total)
	}
	if len(doneSeen) != total {
		t.Fatalf("%d per-pair events, want %d", len(doneSeen), total)
	}
	seen := make(map[int]bool)
	for _, d := range doneSeen {
		if seen[d] {
			t.Fatalf("PairsDone value %d emitted twice", d)
		}
		seen[d] = true
	}
	if last.MVDs != len(res.MVDs) {
		t.Fatalf("final event reports %d MVDs, result has %d", last.MVDs, len(res.MVDs))
	}
	if last.Separators != res.NumMinSeps() {
		t.Fatalf("final event reports %d separators, result has %d", last.Separators, res.NumMinSeps())
	}
}

// TestParallelRestrictedPairs mines a pair subset under the fan-out.
func TestParallelRestrictedPairs(t *testing.T) {
	r := datagen.Nursery().Head(1000)
	pairs := [][2]int{{0, 8}, {1, 7}, {2, 5}}
	mk := func(workers int) *MVDResult {
		opts := DefaultOptions(0.1)
		opts.Workers = workers
		ps, err := NewMiner(shared(r), opts).MinePairMVDs(pairs)
		if err != nil {
			t.Fatal(err)
		}
		return MergePairs(ps)
	}
	serial, par := mk(1), mk(3)
	if !reflect.DeepEqual(par.MinSeps, serial.MinSeps) {
		t.Fatal("restricted-pair MinSeps differ")
	}
	for p := range par.MinSeps {
		if !(bitset.Of(p.A, p.B) == bitset.Of(0, 8) || bitset.Of(p.A, p.B) == bitset.Of(1, 7) || bitset.Of(p.A, p.B) == bitset.Of(2, 5)) {
			t.Fatalf("unexpected pair %v in restricted mine", p)
		}
	}
}

// mergeByFingerprint is MergePairs' reference rule: the first occurrence
// of each MVD by Fingerprint, then mvd.Sort.
func mergeByFingerprint(ps []PairMVDs) *MVDResult {
	res := &MVDResult{MinSeps: make(map[Pair][]bitset.AttrSet)}
	seen := make(map[string]bool)
	for _, p := range ps {
		if len(p.Seps) > 0 {
			res.MinSeps[Pair{p.A, p.B}] = p.Seps
		}
		for _, phi := range p.MVDs {
			if fp := phi.Fingerprint(); !seen[fp] {
				seen[fp] = true
				res.MVDs = append(res.MVDs, phi)
			}
		}
	}
	mvd.Sort(res.MVDs)
	return res
}

// TestMergePairsMatchesFingerprintRule holds the hashed dedup of
// MergePairs to the fingerprint rule on random pair lists whose repeated
// MVDs are equal copies in distinct backing slices: the same result, and
// each kept MVD is the first occurrence itself, not a later copy.
func TestMergePairsMatchesFingerprintRule(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		pool := randomMVDs(rng, 1+rng.Intn(200), 4+rng.Intn(12), 0.1)
		ps := make([]PairMVDs, rng.Intn(40))
		for i := range ps {
			ps[i].A, ps[i].B = i, i+1
			if rng.Intn(3) > 0 {
				ps[i].Seps = []bitset.AttrSet{bitset.Single(rng.Intn(8))}
			}
			for n := rng.Intn(30); n > 0; n-- {
				phi := pool[rng.Intn(len(pool))]
				phi.Deps = slices.Clone(phi.Deps)
				ps[i].MVDs = append(ps[i].MVDs, phi)
			}
		}
		got, want := MergePairs(ps), mergeByFingerprint(ps)
		if !reflect.DeepEqual(got.MinSeps, want.MinSeps) {
			t.Fatalf("trial %d: MinSeps differ", trial)
		}
		if len(got.MVDs) != len(want.MVDs) {
			t.Fatalf("trial %d: %d MVDs, the fingerprint rule keeps %d", trial, len(got.MVDs), len(want.MVDs))
		}
		for k := range got.MVDs {
			if !got.MVDs[k].Equal(want.MVDs[k]) || &got.MVDs[k].Deps[0] != &want.MVDs[k].Deps[0] {
				t.Fatalf("trial %d: MVD %d is %v, the fingerprint rule keeps %v (or another occurrence of it)",
					trial, k, got.MVDs[k], want.MVDs[k])
			}
		}
	}
}

// TestMVDSetKeepsHashCollisions feeds the set one hash for different
// MVDs: each is kept, in order, and an equal copy of any is not.
func TestMVDSetKeepsHashCollisions(t *testing.T) {
	ms := []mvd.MVD{
		mvd.MustNew(bitset.Of(0), bitset.Of(1), bitset.Of(2)),
		mvd.MustNew(bitset.Of(0), bitset.Of(1, 2), bitset.Of(3)),
		mvd.MustNew(bitset.Of(4), bitset.Of(1), bitset.Of(2)),
	}
	var s mvdSet
	for i, m := range ms {
		if !s.insert(42, m) {
			t.Fatalf("%v (member %d) rejected on a hash collision", m, i)
		}
	}
	for _, m := range ms {
		m.Deps = slices.Clone(m.Deps)
		if s.insert(42, m) {
			t.Fatalf("equal copy of %v inserted again", m)
		}
	}
	if !reflect.DeepEqual(s.list, ms) {
		t.Fatalf("set holds %v, want %v", s.list, ms)
	}
}

// TestProgressFinalMVDsMatchesResult: the last phase-1 event's MVD count
// (the progress aggregate's own dedup) is the size of the merged Mε, on
// `wide` at ε 0.1, serial and with two workers.
func TestProgressFinalMVDsMatchesResult(t *testing.T) {
	o, _ := wideMVDs(t)
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions(0.1)
		opts.Workers = workers
		var last Progress
		opts.Progress = func(p Progress) { last = p }
		res, err := NewMiner(o, opts).MineMVDs()
		if err != nil {
			t.Fatal(err)
		}
		if last.MVDs != len(res.MVDs) || last.PairsDone != last.PairsTotal {
			t.Fatalf("workers=%d: final event %+v, result has %d MVDs", workers, last, len(res.MVDs))
		}
	}
}
