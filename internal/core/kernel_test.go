package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/relation"
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
					// The mine settled this pair's list: search again,
					// past the key memo, so the scratch holds the walk.
					m.search(sep, p.A, p.B, 0, true)
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

// literalMineMinSeps is Fig. 5 with no memo: every transversal's
// complement and every reduction step is tested by holds, which the
// callers answer with a search of its own (Miner.search, past the key
// memo).
func literalMineMinSeps(m *Miner, a, b int, holds func(sep bitset.AttrSet) bool) ([]bitset.AttrSet, MinSepTrace) {
	var tr MinSepTrace
	universe := bitset.Full(m.oracle.NumAttrs()).Remove(a).Remove(b)
	if !info.LeqEps(m.oracle.MI(bitset.Single(a), bitset.Single(b), universe), m.opts.Epsilon) {
		return nil, tr
	}
	reduce := func(x bitset.AttrSet) bitset.AttrSet {
		s := x
		for _, i := range x.Indices() {
			if cand := s.Remove(i); holds(cand) {
				s = cand
			}
		}
		return s
	}
	first := reduce(universe)
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
		if !holds(cand) {
			tr.Wasted++
			run++
			tr.MaxWastedRun = max(tr.MaxWastedRun, run)
			continue
		}
		run = 0
		x := reduce(cand)
		seps = append(seps, x)
		enum.AddEdge(x)
	}
	bitset.SortSets(seps)
	tr.Separators = len(seps)
	return seps, tr
}

// checkSettledSlots checks every pair slot m's key memo settled against a
// search of its own on ref, a miner sharing no memo with m: a verdict
// must be whether that search finds a holder, a full-MVD list must be the
// full MVDs it finds. No slot may be left busy, and each slot's index
// must be the one keyRoot.slot gives its dependents. It returns how many
// verdicts and lists it checked.
func checkSettledSlots(t *testing.T, m, ref *Miner) (verdicts, lists int) {
	t.Helper()
	for i := range m.keys.shards {
		for sep, root := range m.keys.shards[i].m {
			var fulls []fullSlot
			if p := root.fulls.Load(); p != nil {
				fulls = *p
			}
			slot := 0
			for x := range root.deps {
				for y := x + 1; y < len(root.deps); y, slot = y+1, slot+1 {
					a, b := root.deps[x].Min(), root.deps[y].Max()
					if got := root.slot(b, a); got != slot {
						t.Fatalf("key %v dependents %d,%d: slot %d, want %d", sep, x, y, got, slot)
					}
					switch st := root.verdicts[slot].Load(); st {
					case slotOpen:
					case slotNo, slotYes:
						verdicts++
						if want := ref.search(sep, a, b, 1, false) > 0; (st == slotYes) != want {
							t.Fatalf("key %v pair (%d,%d): settled verdict %v, a fresh search %v", sep, a, b, st == slotYes, want)
						}
					default:
						t.Fatalf("key %v pair (%d,%d): verdict slot left in state %d", sep, a, b, st)
					}
					if fulls == nil {
						continue
					}
					switch st := fulls[slot].state.Load(); st {
					case slotOpen:
					case slotDone:
						lists++
						ref.search(sep, a, b, 0, true)
						want := ref.fullMVDs(sep)
						if !slices.EqualFunc(fulls[slot].mvds, want, mvd.MVD.Equal) {
							t.Fatalf("key %v pair (%d,%d): settled list %v, a fresh search %v", sep, a, b, fulls[slot].mvds, want)
						}
					default:
						t.Fatalf("key %v pair (%d,%d): list slot left in state %d", sep, a, b, st)
					}
				}
			}
		}
	}
	return verdicts, lists
}

// TestVerdictMemoMatchesSearch checks MineMinSeps' separator tests,
// settled on the key roots' slots, on every pair of nursery and a planted
// relation at two thresholds: the separators and the MinSepTrace
// (Processed, Wasted, MaxWastedRun, Separators) of each pair equal those
// of a replay that searches every test afresh — which runs strictly more
// searches over the lot — and after all pairs every settled verdict
// equals a fresh search on a fresh miner.
func TestVerdictMemoMatchesSearch(t *testing.T) {
	rels := parallelTestRelations(t)
	memo, literal, verdicts := 0, 0, 0
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		n := r.NumCols()
		for _, eps := range []float64{0.05, 0.3} {
			m := newMiner(r, eps)
			replay := newMiner(r, eps)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					before := m.SearchStats().Searches
					got := m.MineMinSeps(a, b)
					memo += m.SearchStats().Searches - before
					before = replay.SearchStats().Searches
					want, wantTrace := literalMineMinSeps(replay, a, b, func(sep bitset.AttrSet) bool {
						return replay.search(sep, a, b, 1, false) > 0
					})
					literal += replay.SearchStats().Searches - before
					if !slices.Equal(got, want) || m.LastMinSepTrace() != wantTrace {
						t.Fatalf("%s eps=%v pair (%d,%d): %v %+v, replay %v %+v",
							name, eps, a, b, got, m.LastMinSepTrace(), want, wantTrace)
					}
				}
			}
			v, _ := checkSettledSlots(t, m, newMiner(r, eps))
			verdicts += v
		}
	}
	if verdicts == 0 || memo >= literal {
		t.Fatalf("%d verdicts settled; %d searches with the memo, %d without", verdicts, memo, literal)
	}
}

// replayRequests replays phase 1 of a mine literally — Fig. 5 for every
// pair, then getFullMVDs for every separator found — searching every
// request afresh. It returns the number of distinct (key, a's root
// dependent, b's root dependent, stage) requests whose two dependents
// differ, and the candidates their searches visit: what a mine that
// searches each once must count. The roots come from literalRepair.
func replayRequests(r *relation.Relation, eps float64) (searches, visited int) {
	m := newMiner(r, eps)
	ref := entropy.New(r)
	type request struct {
		key, da, db bitset.AttrSet
		k           int
	}
	seen := make(map[request]bool)
	roots := make(map[bitset.AttrSet]mvd.MVD)
	run := func(key bitset.AttrSet, a, b, k int) int {
		root, ok := roots[key]
		if !ok {
			root, _ = mvd.Singletons(key, r.NumCols())
			root = literalRepair(ref, root, eps)
			roots[key] = root
		}
		before := m.SearchStats().Visited
		found := m.search(key, a, b, k, k == 0)
		da, db := root.Deps[root.DepIndexOf(a)], root.Deps[root.DepIndexOf(b)]
		if bitset.Compare(da, db) > 0 {
			da, db = db, da
		}
		if req := (request{key, da, db, k}); da != db && !seen[req] {
			seen[req] = true
			searches++
			visited += m.SearchStats().Visited - before
		}
		return found
	}
	n := r.NumCols()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			seps, _ := literalMineMinSeps(m, a, b, func(sep bitset.AttrSet) bool { return run(sep, a, b, 1) > 0 })
			for _, sep := range seps {
				run(sep, a, b, 0)
			}
		}
	}
	return searches, visited
}

// TestSearchOncePerDependentPair is the invariant of the key memo's pair
// slots: a mine runs one search per key, pair of root dependents and
// stage, at any fan-out. On nursery and a noisy planted relation at three
// thresholds, mined with 1 and 8 workers, SearchStats' Searches and
// Visited equal a literal replay's count of distinct requests, and every
// settled verdict and full-MVD list equals a fresh search. Then a mine is
// stopped from its progress hook and re-mined on the same Miner under a
// fresh context: the result equals an uninterrupted mine and every slot
// still equals a fresh search, so no stopped search settled a slot.
func TestSearchOncePerDependentPair(t *testing.T) {
	rels := parallelTestRelations(t)
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		for _, eps := range []float64{0, 0.05, 0.3} {
			wantSearches, wantVisited := replayRequests(r, eps)
			for _, workers := range []int{1, 8} {
				opts := DefaultOptions(eps)
				opts.Workers = workers
				m := NewMiner(shared(r), opts)
				if res := m.MineMVDs(); res.Err != nil {
					t.Fatal(res.Err)
				}
				if st := m.SearchStats(); st.Searches != wantSearches || st.Visited != wantVisited {
					t.Fatalf("%s eps=%v workers=%d: %d searches over %d candidates, replay has %d distinct requests over %d",
						name, eps, workers, st.Searches, st.Visited, wantSearches, wantVisited)
				}
				if v, l := checkSettledSlots(t, m, newMiner(r, eps)); v == 0 || (eps > 0 && l == 0) {
					t.Fatalf("%s eps=%v workers=%d: %d verdicts, %d lists settled", name, eps, workers, v, l)
				}
			}
		}
	}

	r := rels["nursery"]
	for _, workers := range []int{1, 8} {
		opts := DefaultOptions(0.3)
		opts.Workers = workers
		want := NewMiner(shared(r), opts).MineMVDs()
		ctx, cancel := context.WithCancel(context.Background())
		opts.Progress = func(p Progress) {
			if p.PairsDone >= 3 {
				cancel()
			}
		}
		m := NewMiner(shared(r), opts)
		// One search certainly stopped mid-walk: its key's root is settled,
		// the context is done, and the walk breaks before its first
		// candidate. Its slot must stay open.
		key, a, b := bitset.Of(1, 7), 0, 8
		root := m.keyRoot(key)
		done, stop := context.WithCancel(context.Background())
		stop()
		if m.WithContext(done).SeparatorHolds(key, a, b) || root.verdicts[root.slot(a, b)].Load() != slotOpen {
			t.Fatalf("workers=%d: a stopped search settled its slot", workers)
		}
		if res := m.WithContext(ctx).MineMVDs(); !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("workers=%d: stopped mine Err = %v, want context.Canceled", workers, res.Err)
		}
		m.WithContext(context.Background())
		got := m.MineMVDs()
		if got.Err != nil || !slices.EqualFunc(got.MVDs, want.MVDs, mvd.MVD.Equal) || !reflect.DeepEqual(got.MinSeps, want.MinSeps) {
			t.Fatalf("workers=%d: re-mine after a stop gives %d MVDs (err %v), an uninterrupted mine %d",
				workers, len(got.MVDs), got.Err, len(want.MVDs))
		}
		checkSettledSlots(t, m, newMiner(r, 0.3))
		cancel()
	}
}

// TestSearchKernelAllocs is the allocation gate of the search kernel. On
// a warm miner — entropies memoized, the key's root in the key memo, the
// scratch grown — a K = 1 search allocates nothing, however many
// candidates it visits and prunes, and a K = 0 search allocates only for
// the full MVDs it returns. Settled, SeparatorHolds and GetFullMVDs(K = 0)
// allocate nothing and search nothing. MineMinSeps — settled roots, open
// slots, transversal buffers — allocates only for the slice it returns.
func TestSearchKernelAllocs(t *testing.T) {
	r := datagen.Nursery()
	a, b := 0, 8

	m := newMiner(r, 0.1)
	key := bitset.Empty()
	m.search(key, a, b, 1, false)
	before := m.SearchStats()
	holds := testing.AllocsPerRun(20, func() { m.search(key, a, b, 1, false) })
	work := m.SearchStats()
	perRun := (work.Visited - before.Visited + work.Pruned - before.Pruned) / 21
	if perRun < 100 {
		t.Fatalf("K = 1 search gate is too easy: %d candidates visited or pruned per run", perRun)
	}
	if holds != 0 {
		t.Errorf("warm K = 1 search: %v allocs/run over %d candidates, want 0", holds, perRun)
	}
	m.SeparatorHolds(key, a, b)
	before = m.SearchStats()
	if settled := testing.AllocsPerRun(20, func() { m.SeparatorHolds(key, a, b) }); settled != 0 || m.SearchStats() != before {
		t.Errorf("settled SeparatorHolds: %v allocs/run, searched %+v after %+v; want 0 allocs, no search",
			settled, m.SearchStats(), before)
	}

	m = newMiner(r, 0.3)
	m.search(key, a, b, 0, true)
	out := m.fullMVDs(key)
	before = m.SearchStats()
	full := testing.AllocsPerRun(5, func() {
		m.search(key, a, b, 0, true)
		out = m.fullMVDs(key)
	})
	perRun = (m.SearchStats().Visited - before.Visited) / 6
	if perRun < 1000 {
		t.Fatalf("K = 0 search gate is too easy: %d candidates visited per run", perRun)
	}
	// Per returned MVD: its dependents and its slot in the result, which
	// grows by doubling.
	if limit := float64(2*len(out) + 2); len(out) == 0 || full > limit {
		t.Errorf("warm K = 0 search: %v allocs/run for %d MVDs over %d candidates, want ≤ %v",
			full, len(out), perRun, limit)
	}
	m.GetFullMVDs(key, a, b, 0)
	before = m.SearchStats()
	settled := testing.AllocsPerRun(20, func() { out = m.GetFullMVDs(key, a, b, 0) })
	if settled != 0 || len(out) == 0 || m.SearchStats() != before {
		t.Errorf("settled GetFullMVDs(K = 0): %v allocs/run for %d MVDs, searched %+v after %+v; want 0 allocs, no search",
			settled, len(out), m.SearchStats(), before)
	}

	// (2,3) has four separators: the enumerator takes edges and hands out
	// transversals, and reductions and transversals re-test separators.
	// Every run reopens the slots, so it searches again.
	m = newMiner(r, 0.1)
	seps := m.MineMinSeps(2, 3)
	before = m.SearchStats()
	mine := testing.AllocsPerRun(5, func() {
		for i := range m.keys.shards {
			for _, root := range m.keys.shards[i].m {
				for j := range root.verdicts {
					root.verdicts[j].Store(slotOpen)
				}
			}
		}
		seps = m.MineMinSeps(2, 3)
	})
	if perRun = (m.SearchStats().Visited - before.Visited) / 6; perRun < 100 || len(seps) == 0 {
		t.Fatalf("MineMinSeps gate is too easy: %d separators, %d candidates visited per run", len(seps), perRun)
	}
	if mine > 1 {
		t.Errorf("warm MineMinSeps: %v allocs/run for %d separators over %d candidates, want ≤ 1 (the result)",
			mine, len(seps), perRun)
	}
}
