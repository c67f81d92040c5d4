package core

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/transversal"
)

// literalRepair is getPairwiseConsistentMVD exactly as Fig. 16 writes it:
// every pass re-evaluates every dependent pair's mutual information from
// scratch, in canonical order, and merges the first violator — no key
// memo, no consistency matrix, no hoisted entropies. It is what the
// kernel's repair must agree with.
func literalRepair(o *entropy.Oracle, phi mvd.MVD, eps float64) mvd.MVD {
	for {
		merged := false
	scan:
		for i := range phi.Deps {
			for j := i + 1; j < len(phi.Deps); j++ {
				if !info.LeqEps(o.MI(phi.Deps[i], phi.Deps[j], phi.Key), eps) {
					phi = phi.Merge(i, j)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			return phi
		}
	}
}

// TestKeyRootsMatchLiteralRepair mines with 1 and with 4 workers and
// then checks every key the mine asked about: the root the key memo
// holds must be the Fig. 16 closure of the all-singletons MVD computed
// from scratch, and its J the J of that closure, bit for bit.
func TestKeyRootsMatchLiteralRepair(t *testing.T) {
	keys := 0
	for name, r := range parallelTestRelations(t) {
		for _, eps := range []float64{0, 0.05, 0.2} {
			for _, workers := range []int{1, 4} {
				opts := DefaultOptions(eps)
				opts.Workers = workers
				m := NewMiner(shared(r), opts)
				if res := m.MineMVDs(); res.Err != nil {
					t.Fatal(res.Err)
				}
				ref := entropy.New(r)
				for i := range m.keys.shards {
					for sep, root := range m.keys.shards[i].m {
						keys++
						singles, err := mvd.Singletons(sep, r.NumCols())
						if err != nil {
							t.Fatal(err)
						}
						want := literalRepair(ref, singles, eps)
						got := mvd.MVD{Key: sep, Deps: root.deps}
						if root.aborted || !got.Equal(want) {
							t.Fatalf("%s eps=%v workers=%d key %v: memo holds %v (aborted=%v), literal repair gives %v",
								name, eps, workers, sep, got, root.aborted, want)
						}
						if wantJ := info.JMVD(ref, want); root.j != wantJ {
							t.Fatalf("%s eps=%v workers=%d key %v: memo J = %v, want %v", name, eps, workers, sep, root.j, wantJ)
						}
					}
				}
			}
		}
	}
	if keys == 0 {
		t.Fatal("the mines queried no key")
	}
}

// TestNeighborRepairMatchesLiteral checks the other user of the
// consistency matrix: a neighbor of a repaired candidate, seeded with
// every untouched pair marked consistent, must repair to what Fig. 16
// gives from scratch. It replays whole searches with a literal walk.
func TestNeighborRepairMatchesLiteral(t *testing.T) {
	r := datagen.Nursery().Head(1200)
	for _, eps := range []float64{0.05, 0.3} {
		m := newMiner(r, eps)
		ref := entropy.New(r)
		n := r.NumCols()
		for _, key := range []bitset.AttrSet{bitset.Empty(), bitset.Of(1), bitset.Of(1, 7), bitset.Of(2, 3, 6)} {
			a, b := key.Complement(n).Min(), key.Complement(n).Max()
			got := m.GetFullMVDs(key, a, b, 0)
			want := literalFullMVDs(ref, key, a, b, n, eps)
			if len(got) != len(want) {
				t.Fatalf("eps=%v key %v: got %v, want %v", eps, key, got, want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("eps=%v key %v: got %v, want %v", eps, key, got, want)
				}
			}
		}
	}
}

// literalFullMVDs is getFullMVDsOpt (Fig. 17) with every candidate
// repaired by literalRepair and the visited set a map of fingerprints.
func literalFullMVDs(o *entropy.Oracle, key bitset.AttrSet, a, b, n int, eps float64) []mvd.MVD {
	root, err := mvd.Singletons(key, n)
	if err != nil {
		return nil
	}
	root = literalRepair(o, root, eps)
	if !root.Separates(a, b) {
		return nil
	}
	visited := map[string]bool{root.Fingerprint(): true}
	stack := []mvd.MVD{root}
	var out []mvd.MVD
	for len(stack) > 0 {
		phi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if info.LeqEps(info.JMVD(o, phi), eps) {
			out = append(out, phi)
			continue
		}
		for i := range phi.Deps {
			for j := i + 1; j < len(phi.Deps); j++ {
				nb := literalRepair(o, phi.Merge(i, j), eps)
				if fp := nb.Fingerprint(); nb.Separates(a, b) && !visited[fp] {
					visited[fp] = true
					stack = append(stack, nb)
				}
			}
		}
	}
	var full []mvd.MVD
	for i, phi := range out {
		dominated := false
		for j, psi := range out {
			dominated = dominated || (i != j && psi.StrictlyRefines(phi))
		}
		if !dominated {
			full = append(full, phi)
		}
	}
	mvd.Sort(full)
	return full
}

// TestCarriedTermsMatchOracle replays, after a whole mine, a full search
// for every (pair, separator) the mine found, on nursery and a planted
// relation at three thresholds, and checks what the search carried
// against a fresh oracle: every visited candidate's term for each
// dependent is H(key ∪ Cᵢ) bit for bit, and the J it compared with ε is
// info.JMVD of the candidate, bit for bit. The keys' roots carry H(key)
// and H(Ω) exactly too.
func TestCarriedTermsMatchOracle(t *testing.T) {
	rels := parallelTestRelations(t)
	candidates := 0
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		ref := entropy.New(r)
		full := bitset.Full(r.NumCols())
		for _, eps := range []float64{0, 0.05, 0.3} {
			m := newMiner(r, eps)
			res := m.MineMVDs()
			for _, p := range res.SortedPairs() {
				for _, sep := range res.MinSeps[p] {
					m.GetFullMVDs(sep, p.A, p.B, 0)
					root := m.keyRoot(sep)
					if root.hKey != ref.H(sep) || root.hAll != ref.H(full) {
						t.Fatalf("%s eps=%v key %v: root carries H(key) %v, H(Ω) %v; want %v, %v",
							name, eps, sep, root.hKey, root.hAll, ref.H(sep), ref.H(full))
					}
					s := &m.scratch
					for _, sl := range s.slots {
						if sl.epoch != s.epoch {
							continue
						}
						candidates++
						phi := mvd.MVD{Key: sep, Deps: s.deps(sl.ref)}
						for i, d := range phi.Deps {
							if got, want := s.termsOf(sl.ref)[i], ref.H(sep.Union(d)); got != want {
								t.Fatalf("%s eps=%v %v: term %d carries %v, H = %v", name, eps, phi, i, got, want)
							}
						}
						if got, want := candJ(s, root, sl.ref), info.JMVD(ref, phi); got != want {
							t.Fatalf("%s eps=%v %v: search's J %v, JMVD %v", name, eps, phi, got, want)
						}
					}
				}
			}
		}
	}
	if candidates < 1000 {
		t.Fatalf("only %d candidates checked", candidates)
	}
}

// literalMineMinSeps is Fig. 5 with no verdict table: every transversal's
// complement and every reduction step is tested by a fresh search through
// the exported SeparatorHolds and ReduceMinSep.
func literalMineMinSeps(m *Miner, a, b int) ([]bitset.AttrSet, MinSepTrace) {
	var tr MinSepTrace
	universe := bitset.Full(m.oracle.NumAttrs()).Remove(a).Remove(b)
	if !info.LeqEps(m.oracle.MI(bitset.Single(a), bitset.Single(b), universe), m.opts.Epsilon) {
		return nil, tr
	}
	first := m.ReduceMinSep(universe, a, b)
	seps := []bitset.AttrSet{first}
	enum := transversal.New(universe)
	enum.AddEdge(first)
	run := 0
	for {
		d, ok := enum.Next()
		if !ok {
			break
		}
		tr.Processed++
		cand := universe.Diff(d)
		if !m.SeparatorHolds(cand, a, b) {
			tr.Wasted++
			run++
			tr.MaxWastedRun = max(tr.MaxWastedRun, run)
			continue
		}
		run = 0
		x := m.ReduceMinSep(cand, a, b)
		seps = append(seps, x)
		enum.AddEdge(x)
	}
	bitset.SortSets(seps)
	tr.Separators = len(seps)
	return seps, tr
}

// TestVerdictMemoMatchesSearch checks MineMinSeps' per-pair verdict table
// on every pair of nursery and a planted relation at two thresholds:
// every verdict the table holds after the pair equals SeparatorHolds on a
// fresh miner, and the separators and the MinSepTrace (Processed, Wasted,
// MaxWastedRun, Separators) equal those of a replay that searches every
// test afresh — which runs strictly more searches over the lot.
func TestVerdictMemoMatchesSearch(t *testing.T) {
	rels := parallelTestRelations(t)
	tabled, literal, verdicts := 0, 0, 0
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		n := r.NumCols()
		for _, eps := range []float64{0.05, 0.3} {
			m := newMiner(r, eps)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					before := m.SearchStats().Searches
					got := m.MineMinSeps(a, b)
					tabled += m.SearchStats().Searches - before
					fresh := newMiner(r, eps)
					tab := &m.scratch.verdicts
					for _, sl := range tab.slots {
						if sl.epoch != tab.epoch {
							continue
						}
						verdicts++
						if want := fresh.SeparatorHolds(sl.key, a, b); sl.val != want {
							t.Fatalf("%s eps=%v pair (%d,%d) sep %v: table says %v, a fresh search %v",
								name, eps, a, b, sl.key, sl.val, want)
						}
					}
					replay := newMiner(r, eps)
					want, wantTrace := literalMineMinSeps(replay, a, b)
					literal += replay.SearchStats().Searches
					if !slices.Equal(got, want) || m.LastMinSepTrace() != wantTrace {
						t.Fatalf("%s eps=%v pair (%d,%d): %v %+v, replay %v %+v",
							name, eps, a, b, got, m.LastMinSepTrace(), want, wantTrace)
					}
				}
			}
		}
	}
	if verdicts == 0 || tabled >= literal {
		t.Fatalf("%d verdicts tabled; %d searches with the table, %d without", verdicts, tabled, literal)
	}
}

// TestSearchKernelAllocs is the allocation gate of the search kernel. On
// a warm miner — entropies memoized, the key's root in the key memo, the
// scratch grown — SeparatorHolds allocates nothing, however many
// candidates it visits and prunes, GetFullMVDs allocates only for the
// MVDs it returns, and MineMinSeps — verdict table, settled roots,
// transversal buffers — only for the slice it returns.
func TestSearchKernelAllocs(t *testing.T) {
	r := datagen.Nursery()
	a, b := 0, 8

	m := newMiner(r, 0.1)
	key := bitset.Empty()
	m.SeparatorHolds(key, a, b)
	before := m.SearchStats()
	holds := testing.AllocsPerRun(20, func() { m.SeparatorHolds(key, a, b) })
	work := m.SearchStats()
	perRun := (work.Visited - before.Visited + work.Pruned - before.Pruned) / 21
	if perRun < 100 {
		t.Fatalf("SeparatorHolds gate is too easy: %d candidates visited or pruned per run", perRun)
	}
	if holds != 0 {
		t.Errorf("warm SeparatorHolds: %v allocs/run over %d candidates, want 0", holds, perRun)
	}

	m = newMiner(r, 0.3)
	out := m.GetFullMVDs(key, a, b, 0)
	before = m.SearchStats()
	full := testing.AllocsPerRun(5, func() { out = m.GetFullMVDs(key, a, b, 0) })
	perRun = (m.SearchStats().Visited - before.Visited) / 6
	if perRun < 1000 {
		t.Fatalf("GetFullMVDs gate is too easy: %d candidates visited per run", perRun)
	}
	// Per returned MVD: its dependents and its slot in the result, which
	// grows by doubling.
	if limit := float64(2*len(out) + 2); len(out) == 0 || full > limit {
		t.Errorf("warm GetFullMVDs(k=0): %v allocs/run for %d MVDs over %d candidates, want ≤ %v",
			full, len(out), perRun, limit)
	}

	// (2,3) has four separators: the enumerator takes edges and hands out
	// transversals, and reductions and transversals re-test separators.
	m = newMiner(r, 0.1)
	seps := m.MineMinSeps(2, 3)
	before = m.SearchStats()
	mine := testing.AllocsPerRun(5, func() { seps = m.MineMinSeps(2, 3) })
	if perRun = (m.SearchStats().Visited - before.Visited) / 6; perRun < 100 || len(seps) == 0 {
		t.Fatalf("MineMinSeps gate is too easy: %d separators, %d candidates visited per run", len(seps), perRun)
	}
	if mine > 1 {
		t.Errorf("warm MineMinSeps: %v allocs/run for %d separators over %d candidates, want ≤ 1 (the result)",
			mine, len(seps), perRun)
	}
}
