package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/mis"
	"repro/internal/mvd"
	"repro/internal/relation"
)

// randomMVDs returns n valid MVDs over u attributes. With probability
// pAbsent an attribute is in neither the key nor a dependent, so the
// list mixes full and non-full MVDs when pAbsent > 0.
func randomMVDs(rng *rand.Rand, n, u int, pAbsent float64) []mvd.MVD {
	out := make([]mvd.MVD, 0, n)
	for len(out) < n {
		var key bitset.AttrSet
		deps := make([]bitset.AttrSet, 2+rng.Intn(3))
		for a := 0; a < u; a++ {
			switch r := rng.Float64(); {
			case r < pAbsent:
			case r < pAbsent+0.25:
				key = key.Add(a)
			default:
				d := rng.Intn(len(deps))
				deps[d] = deps[d].Add(a)
			}
		}
		var nonEmpty []bitset.AttrSet
		for _, d := range deps {
			if !d.IsEmpty() {
				nonEmpty = append(nonEmpty, d)
			}
		}
		if m, err := mvd.New(key, nonEmpty); err == nil {
			out = append(out, m)
		}
	}
	return out
}

var wide struct {
	once   sync.Once
	oracle *entropy.Oracle
	mvds   [][]mvd.MVD // at wideEps
}

// wideEps are the thresholds of the benchmark's warm_sweep workload.
var wideEps = []float64{0.02, 0.05, 0.1}

// wideMVDs mines the benchmark's `wide` relation (3,240 × 13, planted
// chain of 4-attribute bags, 1 % cell noise, seed 7) once per test binary
// at each of wideEps over one shared oracle.
func wideMVDs(t *testing.T) (*entropy.Oracle, [][]mvd.MVD) {
	t.Helper()
	wide.once.Do(func() {
		r, err := datagen.Ladder("wide")
		if err != nil {
			panic(err)
		}
		wide.oracle = shared(r)
		for _, eps := range wideEps {
			opts := DefaultOptions(eps)
			opts.Workers = 2
			res, _ := NewMiner(wide.oracle, opts).MineMVDs()
			wide.mvds = append(wide.mvds, res.MVDs)
		}
	})
	return wide.oracle, wide.mvds
}

// keyPartFails is the key part of Def. 7.1 read literally: no dependent A
// of phi has key(psi) ⊆ key(phi) ∪ A, or no dependent B of psi has
// key(phi) ⊆ key(psi) ∪ B.
func keyPartFails(phi, psi mvd.MVD) bool {
	half := func(phi, psi mvd.MVD) bool {
		for _, a := range phi.Deps {
			if psi.Key.SubsetOf(phi.Key.Union(a)) {
				return true
			}
		}
		return false
	}
	return !half(phi, psi) || !half(psi, phi)
}

// checkGraph builds the incompatibility graph of ms at each worker count
// and holds it to pairwise Compatible: same adjacency, symmetric, no
// self-loops, and the reference edge count.
func checkGraph(t *testing.T, name string, ms []mvd.MVD) {
	t.Helper()
	n := len(ms)
	ref := make([]bool, n*n)
	refEdges := int64(0)
	for i := range ms {
		for j := i + 1; j < n; j++ {
			if !Compatible(ms[i], ms[j]) {
				ref[i*n+j], ref[j*n+i] = true, true
				refEdges++
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		opts := DefaultOptions(0)
		opts.Workers = workers
		m := NewMiner(nil, opts)
		g := mis.NewGraph(n)
		ok, edges := m.buildIncompatibilityGraph(g, ms)
		if !ok {
			t.Fatalf("%s workers=%d: build reported not ok", name, workers)
		}
		if edges != refEdges {
			t.Fatalf("%s workers=%d: %d edges, want %d", name, workers, edges, refEdges)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := g.HasEdge(i, j); got != ref[i*n+j] {
					t.Fatalf("%s workers=%d: edge {%d,%d} = %v, want %v from pairwise Compatible (%v / %v)",
						name, workers, i, j, got, ref[i*n+j], ms[i], ms[j])
				}
			}
		}
	}
}

// sameKeyMVDs returns n full MVDs over u attributes that all share one
// random key, so every pair of them reaches the graph row's same-key
// bits, the ones decided by the scalar Compatible.
func sameKeyMVDs(rng *rand.Rand, n, u int) []mvd.MVD {
	var key bitset.AttrSet
	for a := 0; a < u; a++ {
		if rng.Intn(4) == 0 {
			key = key.Add(a)
		}
	}
	out := make([]mvd.MVD, 0, n)
	for len(out) < n {
		deps := make([]bitset.AttrSet, 2+rng.Intn(4))
		key.Complement(u).ForEach(func(a int) bool {
			d := rng.Intn(len(deps))
			deps[d] = deps[d].Add(a)
			return true
		})
		var nonEmpty []bitset.AttrSet
		for _, d := range deps {
			if !d.IsEmpty() {
				nonEmpty = append(nonEmpty, d)
			}
		}
		if m, err := mvd.New(key, nonEmpty); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// TestIncompatibilityGraphMatchesPairwise holds the bit-row build — the
// word evaluation of Def. 7.1 over the column planes, the scalar test on
// its same-key bits, the in-place rows and the block-transpose mirror —
// to pairwise Compatible on random MVD lists (full and non-full, list
// lengths around word boundaries, and full MVDs sharing one key) and on
// the MVDs mined from the benchmark's `wide` relation.
func TestIncompatibilityGraphMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var keyFails, exactFails, compatible, sameKey int
	check := func(name string, ms []mvd.MVD) {
		checkGraph(t, name, ms)
		km := newKeyMasks(ms)
		s := km.newKeyRow()
		row := make([]uint64, (len(ms)+63)/64)
		for i := range ms {
			clear(row)
			km.incompatibleRow(s, ms, i, row)
			for j := i + 1; j < len(ms); j++ {
				edge := row[j/64]&(1<<uint(j%64)) != 0
				keyFail := keyPartFails(ms[i], ms[j])
				if keyFail && !edge {
					t.Fatalf("%s: %v vs %v: no edge, but Def. 7.1's key part fails", name, ms[i], ms[j])
				}
				switch {
				case keyFail:
					keyFails++
				case !Compatible(ms[i], ms[j]):
					exactFails++
				default:
					compatible++
				}
				if !keyFail && ms[i].Key == ms[j].Key {
					sameKey++
				}
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 129, 300} {
		for _, u := range []int{5, 9, 13, 40} {
			for _, pAbsent := range []float64{0, 0.15} {
				check(fmt.Sprintf("n=%d u=%d absent=%v", n, u, pAbsent), randomMVDs(rng, n, u, pAbsent))
			}
		}
	}
	for _, u := range []int{6, 13, 20} {
		check(fmt.Sprintf("same key n=100 u=%d", u), sameKeyMVDs(rng, 100, u))
	}
	// The lists must reach every branch: key-part failures, edges only
	// the rest of Def. 7.1 finds, compatible pairs, and same-key pairs.
	if keyFails == 0 || exactFails == 0 || compatible == 0 || sameKey == 0 {
		t.Fatalf("random lists too narrow: %d key failures, %d exact-only edges, %d compatible pairs, %d same-key pairs",
			keyFails, exactFails, compatible, sameKey)
	}
	if testing.Short() {
		return
	}
	_, sets := wideMVDs(t)
	for k, ms := range sets {
		checkGraph(t, fmt.Sprintf("wide eps=%v (%d MVDs)", wideEps[k], len(ms)), ms)
	}
}

// FuzzIncompatibility checks the graph row's verdict against Compatible,
// in both list orders, on fuzzer-chosen MVD pairs over ≤ 16 attributes
// and up to 14 dependents (L = 4 index bits). Each uint64 assigns
// attribute a the nibble v = (p >> 4a) & 15: 0 leaves a out of the MVD, 1
// puts it in the key, v ≥ 2 in dependent v−2.
func FuzzIncompatibility(f *testing.F) {
	f.Add(uint64(0x32), uint64(0x23))
	f.Add(uint64(0x432), uint64(0x1432))
	f.Add(uint64(0x5432), uint64(0x2143))
	f.Add(uint64(0x3322110), uint64(0x2233011))
	f.Add(uint64(0xFEDCBA9876543210), uint64(0x0123456789ABCDEF))
	decode := func(p uint64) (mvd.MVD, error) {
		var key bitset.AttrSet
		var deps [14]bitset.AttrSet
		for a := 0; a < 16; a++ {
			switch v := int(p>>(4*a)) & 15; v {
			case 0:
			case 1:
				key = key.Add(a)
			default:
				deps[v-2] = deps[v-2].Add(a)
			}
		}
		var nonEmpty []bitset.AttrSet
		for _, d := range deps {
			if !d.IsEmpty() {
				nonEmpty = append(nonEmpty, d)
			}
		}
		return mvd.New(key, nonEmpty)
	}
	f.Fuzz(func(t *testing.T, p, q uint64) {
		phi, err := decode(p)
		if err != nil {
			return
		}
		psi, err := decode(q)
		if err != nil {
			return
		}
		compatible := Compatible(phi, psi)
		if Compatible(psi, phi) != compatible {
			t.Fatalf("Compatible not symmetric on %v, %v", phi, psi)
		}
		if keyPartFails(phi, psi) && compatible {
			t.Fatalf("%v vs %v: key failure on a compatible pair", phi, psi)
		}
		for _, ms := range [][]mvd.MVD{{phi, psi}, {psi, phi}} {
			km := newKeyMasks(ms)
			row := make([]uint64, 1)
			km.incompatibleRow(km.newKeyRow(), ms, 0, row)
			if edge := row[0] == 2; edge == compatible || row[0]&^2 != 0 {
				t.Fatalf("%v vs %v: row %#x, Compatible = %v", ms[0], ms[1], row[0], compatible)
			}
		}
	})
}

// TestIncompatibilityGraphCancellation stops the graph build on its one
// path, inline (workers 1) and in goroutines (workers 2): with a context
// cancelled before EnumerateSchemes starts, and with one cancelled from
// the row callback mid-build. Either way no scheme is emitted and Err
// reports context.Canceled.
func TestIncompatibilityGraphCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := entropy.New(randomRelation(rng, 30, 10, 3))
	ms := randomMVDs(rng, 200, 10, 0)
	for _, workers := range []int{1, 2} {
		for _, mid := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d mid-build=%v", workers, mid)
			opts := DefaultOptions(0.1)
			opts.Workers = workers
			ctx, cancel := context.WithCancel(context.Background())
			m := NewMiner(o, opts)
			var rows atomic.Int64
			if mid {
				var once sync.Once
				m.afterGraphRow = func(int) {
					rows.Add(1)
					once.Do(func() {
						cancel()
						for !m.done.Load() { // the context's AfterFunc raises it
							runtime.Gosched()
						}
					})
				}
			} else {
				cancel()
			}
			m.WithContext(ctx)
			emitted := 0
			err := m.EnumerateSchemes(ms, 0, func(*Scheme) bool {
				emitted++
				return true
			})
			cancel()
			if emitted != 0 {
				t.Errorf("%s: %d schemes emitted after cancellation", name, emitted)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
			if mid && (rows.Load() == 0 || rows.Load() >= int64(len(ms))) {
				t.Errorf("%s: %d of %d rows built, want a cut mid-build", name, rows.Load(), len(ms))
			}
		}
	}
}

// TestIncompatibilityGraphAllocs is the allocation gate of the graph
// build: over the `wide` MVDs at ε = 0.1 it allocates the graph (struct,
// row headers, one backing array), the key masks, the fill's cursor and
// closures, and one scratch per worker — the same count over an eighth
// of the list, so nothing per row or per edge.
func TestIncompatibilityGraphAllocs(t *testing.T) {
	o, sets := wideMVDs(t)
	ms := sets[len(sets)-1]
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions(0.1)
		opts.Workers = workers
		m := NewMiner(o, opts)
		build := func(ms []mvd.MVD) float64 {
			return testing.AllocsPerRun(5, func() {
				if ok, _ := m.buildIncompatibilityGraph(mis.NewGraph(len(ms)), ms); !ok {
					t.Fatal("build cut short")
				}
			})
		}
		full, eighth := build(ms), build(ms[:len(ms)/8])
		if limit := float64(12 + 6*workers); full > limit || full != eighth {
			t.Errorf("workers=%d: %v allocs over %d MVDs, %v over %d; want equal and ≤ %v",
				workers, full, len(ms), eighth, len(ms)/8, limit)
		}
		t.Logf("workers=%d: %v allocs over %d MVDs", workers, full, len(ms))
	}
}

var graphLists struct {
	once  sync.Once
	lists []graphList
}

type graphList struct {
	name string
	ms   []mvd.MVD
}

// BenchmarkIncompatibilityGraph times one serial graph build over three
// mined lists of different widths: the benchmark's `wide` relation
// (13 columns) at ε 0.1, the Hepatitis analog (20 columns, up to 13
// dependents) at ε 0 and the Echocardiogram analog (13 columns) at
// ε 0.1. Each list is mined once per test binary.
func BenchmarkIncompatibilityGraph(b *testing.B) {
	graphLists.once.Do(func() {
		wideRel, err := datagen.Ladder("wide")
		if err != nil {
			panic(err)
		}
		mine := func(name string, r *relation.Relation, eps float64) {
			opts := DefaultOptions(eps)
			opts.Workers = 2
			res, _ := NewMiner(shared(r), opts).MineMVDs()
			ms := res.MVDs
			mvd.Sort(ms)
			graphLists.lists = append(graphLists.lists, graphList{name, ms})
		}
		mine("wide_eps01", wideRel, 0.1)
		for _, d := range []struct {
			name, dataset string
			eps           float64
		}{{"hep20_eps0", "Hepatitis", 0}, {"echo_eps01", "Echocardiogram", 0.1}} {
			spec, err := datagen.Lookup(d.dataset, 10000)
			if err != nil {
				panic(err)
			}
			mine(d.name, spec.Generate(), d.eps)
		}
	})
	for _, l := range graphLists.lists {
		b.Run(l.name, func(b *testing.B) {
			m := NewMiner(nil, DefaultOptions(0))
			var edges int64
			for b.Loop() {
				var ok bool
				if ok, edges = m.buildIncompatibilityGraph(mis.NewGraph(len(l.ms)), l.ms); !ok {
					b.Fatal("build cut short")
				}
			}
			b.ReportMetric(float64(len(l.ms)), "mvds")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}
