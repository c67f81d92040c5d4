package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mis"
	"repro/internal/mvd"
	"repro/internal/relation"
	"repro/internal/schema"
)

// emittedScheme is what a caller of EnumerateSchemes sees of one scheme.
type emittedScheme struct {
	rels, bags []bitset.AttrSet
	j          float64
	edges      [][2]int
}

func enumerated(o *entropy.Oracle, ms []mvd.MVD, limit int) []emittedScheme {
	var out []emittedScheme
	NewMiner(o, DefaultOptions(0)).EnumerateSchemes(ms, limit, func(s *Scheme) bool {
		out = append(out, emittedScheme{s.Schema.Relations, s.Tree.Bags, s.J, s.Tree.Edges})
		return true
	})
	return out
}

// referenceSchemes is the enumeration's earlier rule, kept as the
// reference: the graph from pairwise Compatible, and per compatible set
// Fig. 9 over a fresh copy of the set, a map-based canonical form, and a
// seen map keyed by the relations' fixed-width hex words.
func referenceSchemes(o *entropy.Oracle, mvds []mvd.MVD, limit int) []emittedScheme {
	ms := slices.Clone(mvds)
	mvd.Sort(ms)
	g := mis.NewGraph(len(ms))
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if !Compatible(ms[i], ms[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	var out []emittedScheme
	seen := map[string]bool{}
	g.EnumerateBK(func(set []int) bool {
		q := make([]mvd.MVD, len(set))
		for k, idx := range set {
			q[k] = ms[idx]
		}
		rels := referenceBuild(bitset.Full(o.NumAttrs()), q)
		if len(rels) == 0 {
			return true
		}
		var fp strings.Builder
		for _, r := range rels {
			fmt.Fprintf(&fp, "%016x", uint64(r))
		}
		if seen[fp.String()] {
			return true
		}
		seen[fp.String()] = true
		tree, err := schema.BuildJoinTree(schema.Schema{Relations: rels})
		if err != nil {
			return true
		}
		out = append(out, emittedScheme{rels, tree.Bags, info.JTree(o, tree), tree.Edges})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// referenceBuild is Fig. 9 as first written: a sorted copy of q, the split
// relation dropped by copying the list, then duplicates dropped through a
// map and subsumed relations by a scan, and a sort.
func referenceBuild(universe bitset.AttrSet, q []mvd.MVD) []bitset.AttrSet {
	sorted := append([]mvd.MVD(nil), q...)
	mvd.Sort(sorted)
	current := []bitset.AttrSet{universe}
	for _, phi := range sorted {
		target := -1
		for i, omega := range current {
			if phi.Key.SubsetOf(omega) {
				target = i
				break
			}
		}
		if target < 0 {
			continue
		}
		omega := current[target]
		var parts []bitset.AttrSet
		for _, dep := range phi.Deps {
			part := dep.Union(phi.Key).Intersect(omega)
			if part != phi.Key {
				parts = append(parts, part)
			}
		}
		if len(parts) < 2 {
			continue
		}
		current = append(current[:target:target], current[target+1:]...)
		current = append(current, parts...)
	}
	seen := make(map[bitset.AttrSet]bool, len(current))
	var distinct []bitset.AttrSet
	for _, r := range current {
		if r.IsEmpty() || seen[r] {
			continue
		}
		seen[r] = true
		distinct = append(distinct, r)
	}
	var out []bitset.AttrSet
	for _, r := range distinct {
		subsumed := false
		for _, other := range distinct {
			if r.ProperSubsetOf(other) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, r)
		}
	}
	bitset.SortSets(out)
	return out
}

var hep struct {
	once   sync.Once
	oracle *entropy.Oracle
	mvds   []mvd.MVD
}

// hepMVDs mines the Hepatitis analog (155 × 20) at ε 0 once per test
// binary: 2,968 MVDs whose enumeration mostly repeats schemes.
func hepMVDs(t testing.TB) (*entropy.Oracle, []mvd.MVD) {
	t.Helper()
	hep.once.Do(func() {
		spec, err := datagen.Lookup("Hepatitis", 10000)
		if err != nil {
			panic(err)
		}
		hep.oracle = shared(spec.Generate())
		opts := DefaultOptions(0)
		opts.Workers = 2
		res, _ := NewMiner(hep.oracle, opts).MineMVDs()
		hep.mvds = res.MVDs
	})
	return hep.oracle, hep.mvds
}

// TestEnumerateSchemesMatchesReference holds the emitted sequence — each
// scheme's relations, join-tree bags and edges, and J — to the reference
// rule's: on the Mε of random relations of at most 7 columns at three
// thresholds, uncapped; on `wide` at ε 0.1 capped at 100; and, unless
// -short, on the first 5,000 schemes of the Hepatitis analog at ε 0,
// where most compatible sets repeat a scheme.
func TestEnumerateSchemesMatchesReference(t *testing.T) {
	check := func(name string, o *entropy.Oracle, ms []mvd.MVD, limit int) {
		t.Helper()
		got, want := enumerated(o, ms, limit), referenceSchemes(o, ms, limit)
		if len(want) == 0 {
			t.Fatalf("%s: the reference emits nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d schemes emitted, the reference %d, or they differ", name, len(got), len(want))
		}
	}
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 12; i++ {
		r := randomRelation(rng, 16+rng.Intn(30), 4+rng.Intn(4), 2)
		o := entropy.New(r)
		for _, eps := range []float64{0, 0.05, 0.2} {
			res, err := NewMiner(o, DefaultOptions(eps)).MineMVDs()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("random %d (%d cols) eps=%v", i, r.NumCols(), eps), o, res.MVDs, 0)
		}
	}
	o, sets := wideMVDs(t)
	check("wide eps=0.1", o, sets[len(sets)-1], 100)
	if testing.Short() {
		t.Skip("the Hepatitis analog's enumeration is skipped under -short")
	}
	o, ms := hepMVDs(t)
	check("Hepatitis eps=0", o, ms, 5000)
}

// TestEnumerateSchemesRepeatsAllocateNothing is phase 2's allocation
// gate: on the Hepatitis analog at ε 0, capped at 100 schemes, about nine
// in ten compatible sets repeat a scheme. The enumeration may allocate a
// fixed number of objects per scheme it emits, the graph build's
// included, on top of Bron–Kerbosch's own, and none per repeat: one
// allocation per repeated set would exceed the bound.
func TestEnumerateSchemesRepeatsAllocateNothing(t *testing.T) {
	const limit, perScheme = 100, 30
	if testing.Short() {
		t.Skip("mining the Hepatitis analog is skipped under -short")
	}
	o, ms := hepMVDs(t)
	m := NewMiner(o, DefaultOptions(0))
	enumerate := func() {
		if err := m.EnumerateSchemes(ms, limit, func(*Scheme) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	enumerate() // warm the entropies J reads
	var sets, schemes int64
	for _, st := range m.Trace().Phases[len(m.Trace().Phases)-1].Stages {
		if st.Name == "synth" {
			sets, schemes = st.Calls, st.Items
		}
	}
	if schemes != limit || sets < 5*schemes {
		t.Fatalf("%d sets gave %d schemes; want %d schemes and mostly repeats", sets, schemes, limit)
	}
	sorted := slices.Clone(ms)
	mvd.Sort(sorted)
	g := mis.NewGraph(len(sorted))
	if ok, _ := m.buildIncompatibilityGraph(g, sorted); !ok {
		t.Fatal("build cut short")
	}
	bk := mallocs(func() {
		n := int64(0)
		g.EnumerateBK(func([]int) bool {
			n++
			return n < sets
		})
	})
	all := mallocs(enumerate)
	if extra := all - bk; extra > perScheme*uint64(schemes) {
		t.Errorf("%d sets, %d schemes: %d allocations beyond Bron–Kerbosch's %d, want ≤ %d per scheme",
			sets, schemes, extra, bk, perScheme)
	}
	t.Logf("%d sets, %d schemes: %d allocations, %d of them Bron–Kerbosch's", sets, schemes, all, bk)
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSchemeSetKeepsHashCollisions feeds the scheme set one hash for
// different schemes, each probed from one reused buffer first: each is
// kept, in order, an equal one is not, and reusing the probe's buffer
// changes no member.
func TestSchemeSetKeepsHashCollisions(t *testing.T) {
	want := []schema.Schema{
		schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 2)),
		schema.MustNew(bitset.Of(0, 1), bitset.Of(1, 3)),
		schema.MustNew(bitset.Of(0, 1, 2)),
	}
	var s firstSet[schema.Schema]
	var buf []bitset.AttrSet
	for round := 0; round < 2; round++ {
		for i, sch := range want {
			buf = append(buf[:0], sch.Relations...)
			if s.has(42, schema.Schema{Relations: buf}) != (round == 1) {
				t.Fatalf("round %d: %v (member %d) misjudged on a hash collision", round, sch, i)
			}
			if round == 0 {
				s.add(42, schema.Schema{Relations: slices.Clone(buf)})
			}
		}
	}
	if !reflect.DeepEqual(s.list, want) {
		t.Fatalf("set holds %v, want %v", s.list, want)
	}
}

// TestMinedSetsIgnoreAttributeAndRowOrder mines random and planted
// relations of at most 7 columns at ε 0 and 0.1 after a column
// permutation, a row shuffle and a relabelling of every column's values.
// Mapped back through the permutation, the full MVDs must be the
// original's, and so must the uncapped set of schemes, with one known
// exception: Fig. 9 applies two MVDs of one key in the order of their
// dependents' words, so a maximal compatible set that holds two MVDs with
// one key may synthesize another scheme once the columns are permuted.
// Where Mε has such a set, every set without a shared key must still
// synthesize the relabelled scheme, and the sets that changed are logged.
func TestMinedSetsIgnoreAttributeAndRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var rels []*relation.Relation
	for i := 0; i < 8; i++ {
		cols := 4 + rng.Intn(4)
		rels = append(rels, randomRelation(rng, 16+rng.Intn(30), cols, 2+rng.Intn(2)))
		planted, _, err := datagen.Planted(datagen.PlantedSpec{
			Bags: datagen.ChainBags(cols, 3, 1), Seed: rng.Int63(), RootTuples: 4, ExtPerSep: 2, NoiseCells: 0.03,
		})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, planted)
	}
	mvds, decomposed, sharedKey := 0, 0, 0
	for i, r := range rels {
		n, rows := r.NumCols(), r.NumRows()
		perm := rng.Perm(n) // column j of the permuted relation is column perm[j]
		shuffle := rng.Perm(rows)
		variants := []struct {
			name string
			r    *relation.Relation
			back []int // attribute j of the variant is attribute back[j]
		}{
			{"columns permuted", fromColumns(n, func(j int) []relation.Code { return slices.Clone(r.Column(perm[j])) }), perm},
			{"rows shuffled", fromColumns(n, func(j int) []relation.Code {
				col := make([]relation.Code, rows)
				for k, from := range shuffle {
					col[k] = r.Column(j)[from]
				}
				return col
			}), nil},
			{"values relabelled", fromColumns(n, func(j int) []relation.Code {
				label := rng.Perm(r.DomainSize(j))
				col := make([]relation.Code, rows)
				for k, v := range r.Column(j) {
					col[k] = relation.Code(label[v])
				}
				return col
			}), nil},
		}
		for _, eps := range []float64{0, 0.1} {
			wantMVDs, wantSchemes := minedSets(r, eps, nil)
			mvds += len(wantMVDs)
			if wantSchemes[0].M() > 1 {
				decomposed++
			}
			for _, v := range variants {
				label := fmt.Sprintf("relation %d (%d×%d) eps=%v, %s", i, rows, n, eps, v.name)
				gotMVDs, gotSchemes := minedSets(v.r, eps, v.back)
				if !slices.EqualFunc(gotMVDs, wantMVDs, mvd.MVD.Equal) {
					t.Errorf("%s: full MVDs %v, want %v", label, gotMVDs, wantMVDs)
					continue
				}
				if v.back != nil {
					if changed := orderDependentSets(t, label, wantMVDs, v.back); changed > 0 {
						sharedKey += changed
						continue
					}
				}
				if !slices.EqualFunc(gotSchemes, wantSchemes, schema.Schema.Equal) {
					t.Errorf("%s: schemes %v, want %v", label, gotSchemes, wantSchemes)
				}
			}
		}
	}
	t.Logf("%d full MVDs compared; %d of %d mines decompose; %d compatible set(s) with a shared key changed scheme under a column permutation",
		mvds, decomposed, 2*len(rels), sharedKey)
	if mvds == 0 || decomposed == 0 {
		t.Fatal("no mine found structure: the test compares nothing")
	}
}

// orderDependentSets synthesizes every maximal compatible set of ms, in
// the original labels and in the permuted ones (attribute j of the
// permuted relation is attribute back[j]), and returns how many sets came
// out as different schemes. Each of those must hold two MVDs with one key.
func orderDependentSets(t *testing.T, label string, ms []mvd.MVD, back []int) int {
	t.Helper()
	to := make([]int, len(back))
	for j, a := range back {
		to[a] = j
	}
	g := mis.NewGraph(len(ms))
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if !Compatible(ms[i], ms[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	universe := bitset.Full(len(back))
	changed := 0
	g.EnumerateBK(func(set []int) bool {
		q, pq := make([]mvd.MVD, len(set)), make([]mvd.MVD, len(set))
		keys := map[bitset.AttrSet]bool{}
		for k, idx := range set {
			q[k], pq[k] = ms[idx], relabelMVD(ms[idx], to)
			keys[ms[idx].Key] = true
		}
		want, _ := BuildAcyclicSchema(universe, q)
		got, _ := BuildAcyclicSchema(universe, pq)
		if got = relabelSchema(got, back); got.Equal(want) {
			return true
		}
		if len(keys) == len(set) {
			t.Errorf("%s: compatible set %v gives %v, %v once its columns are permuted", label, q, want, got)
		}
		changed++
		return true
	})
	return changed
}

func fromColumns(n int, col func(j int) []relation.Code) *relation.Relation {
	names := make([]string, n)
	cols := make([][]relation.Code, n)
	for j := range cols {
		names[j] = string(rune('A' + j))
		cols[j] = col(j)
	}
	r, err := relation.FromCodes(names, cols)
	if err != nil {
		panic(err)
	}
	return r
}

// relabel renames attribute j of s to to[j]; a nil to keeps s.
func relabel(s bitset.AttrSet, to []int) bitset.AttrSet {
	if to == nil {
		return s
	}
	var out bitset.AttrSet
	s.ForEach(func(j int) bool {
		out = out.Add(to[j])
		return true
	})
	return out
}

func relabelMVD(phi mvd.MVD, to []int) mvd.MVD {
	deps := make([]bitset.AttrSet, len(phi.Deps))
	for k, d := range phi.Deps {
		deps[k] = relabel(d, to)
	}
	return mvd.MustNew(relabel(phi.Key, to), deps...)
}

func relabelSchema(s schema.Schema, to []int) schema.Schema {
	rels := make([]bitset.AttrSet, len(s.Relations))
	for k, r := range s.Relations {
		rels[k] = relabel(r, to)
	}
	return schema.MustNew(rels...)
}

// minedSets mines r at eps and returns its full MVDs and all its schemes,
// each relabelled through back (see relabel) and sorted.
func minedSets(r *relation.Relation, eps float64, back []int) ([]mvd.MVD, []schema.Schema) {
	m := NewMiner(entropy.New(r), DefaultOptions(eps))
	res, err := m.MineMVDs()
	if err != nil {
		panic(err)
	}
	var ms []mvd.MVD
	for _, phi := range res.MVDs {
		ms = append(ms, relabelMVD(phi, back))
	}
	mvd.Sort(ms)
	var schemes []schema.Schema
	m.EnumerateSchemes(res.MVDs, 0, func(s *Scheme) bool {
		schemes = append(schemes, relabelSchema(s.Schema, back))
		return true
	})
	slices.SortFunc(schemes, func(a, b schema.Schema) int { return slices.Compare(a.Relations, b.Relations) })
	return ms, schemes
}
