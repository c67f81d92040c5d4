package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// keyRoots returns every root k holds, dense or hashed.
func keyRoots(k *keyMemo) map[bitset.AttrSet]*keyRoot {
	out := make(map[bitset.AttrSet]*keyRoot)
	for i := range k.dense {
		if r := k.dense[i].Load(); r != nil {
			out[bitset.AttrSet(i)] = r
		}
	}
	if k.hashed != nil {
		k.hashed.Range(func(sep bitset.AttrSet, r *keyRoot) { out[sep] = r })
	}
	return out
}

// hashKeys gives m a hashed key memo, the one relations wider than
// bitset.DenseMaxAttrs get, in place of the dense one its width gives.
// Call it before m mines or forks.
func hashKeys(m *Miner) *Miner {
	m.keys = newKeyMemo(bitset.DenseMaxAttrs + 1)
	return m
}

// TestKeyRootsMatchLiteralRepair mines with 1 and with 4 workers, over
// the dense key memo and the hashed one, and then checks every key the
// mine asked about: the root the key memo holds must be the Fig. 16
// closure of the all-singletons MVD computed from scratch, and its J the
// J of that closure, bit for bit.
func TestKeyRootsMatchLiteralRepair(t *testing.T) {
	keys := 0
	for name, r := range parallelTestRelations(t) {
		for _, eps := range []float64{0, 0.05, 0.2} {
			for _, workers := range []int{1, 4} {
				for _, hashed := range []bool{false, true} {
					opts := DefaultOptions(eps)
					opts.Workers = workers
					m := NewMiner(shared(r), opts)
					if hashed {
						hashKeys(m)
					}
					if _, err := m.MineMVDs(); err != nil {
						t.Fatal(err)
					}
					if hashed == (m.keys.dense != nil) {
						t.Fatalf("%s: hashed=%v mine ran over a key memo with dense=%v", name, hashed, m.keys.dense != nil)
					}
					ref := entropy.New(r)
					for sep, root := range keyRoots(m.keys) {
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
						if j, wantJ := info.JMVDTerms(root.terms, root.hKey, root.hAll), info.JMVD(ref, want); j != wantJ {
							t.Fatalf("%s eps=%v workers=%d key %v: memo J = %v, want %v", name, eps, workers, sep, j, wantJ)
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
			got := m.GetFullMVDs(key, a, b)
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
	visited := map[string]bool{root.String(): true}
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
				if key := nb.String(); nb.Separates(a, b) && !visited[key] {
					visited[key] = true
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
			res, _ := m.MineMVDs()
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

// checkKeyAnswers checks every answer m's key memo holds against a search
// of its own on ref, a miner with m's options sharing no memo with m. A
// settled walk must hold the full MVDs of ref's unrestricted walk. Then,
// for each pair of a root's dependents: its verdict — a bit of the split
// table, or a slot settled by a search — must be whether ref's search kept
// from uniting the pair finds a holder; and once the key is walked, the
// pair's GetFullMVDs, filtered from the walk, must be the full MVDs
// ref's restricted search returns. No walk or verdict slot may be left
// busy, a split table may set no bit past its last pair, and each pair's
// slot must be the one keyRoot.slot gives its dependents. It returns how
// many split-table verdicts, searched verdicts and walks it checked.
func checkKeyAnswers(t *testing.T, m, ref *Miner) (split, searched, walks int) {
	t.Helper()
	for sep, root := range keyRoots(m.keys) {
		walked := false
		switch st := root.walk.Load(); st {
		case slotOpen:
		case slotDone:
			walks++
			walked = true
			ref.search(sep, -1, -1, 0, true)
			if want := ref.fullMVDs(sep); !slices.EqualFunc(*root.fulls, want, mvd.MVD.Equal) {
				t.Fatalf("key %v: settled walk %v, a fresh walk %v", sep, *root.fulls, want)
			}
		default:
			t.Fatalf("key %v: walk left in state %d", sep, st)
		}
		slot := 0
		for x := range root.deps {
			for y := x + 1; y < len(root.deps); y, slot = y+1, slot+1 {
				a, b := root.deps[x].Min(), root.deps[y].Max()
				if got := root.slot(b, a); got != slot {
					t.Fatalf("key %v dependents %d,%d: slot %d, want %d", sep, x, y, got, slot)
				}
				holds, settled := root.holds&(1<<slot) != 0, root.verdicts == nil
				if settled {
					split++
				} else {
					switch st := root.verdicts[slot].Load(); st {
					case slotOpen:
					case slotNo, slotYes:
						holds, settled = st == slotYes, true
						searched++
					default:
						t.Fatalf("key %v pair (%d,%d): verdict slot left in state %d", sep, a, b, st)
					}
				}
				if settled && holds != (ref.search(sep, a, b, 1, false) > 0) {
					t.Fatalf("key %v pair (%d,%d): verdict %v, a search kept from uniting them %v", sep, a, b, holds, !holds)
				}
				if !walked {
					continue
				}
				ref.search(sep, a, b, 0, true)
				if got, want := m.GetFullMVDs(sep, a, b), ref.fullMVDs(sep); !slices.EqualFunc(got, want, mvd.MVD.Equal) {
					t.Fatalf("key %v pair (%d,%d): list %v from the walk, a search kept from uniting them %v", sep, a, b, got, want)
				}
			}
		}
		if root.verdicts == nil && root.holds>>slot != 0 {
			t.Fatalf("key %v: split table %#x sets bits past its %d pairs", sep, root.holds, slot)
		}
	}
	return split, searched, walks
}

// answerEveryPair asks m's key memo, for every key it holds and every pair
// of the key root's dependents, both questions: the separator verdict and
// the full MVDs, so every verdict slot settles and every key is walked.
func answerEveryPair(m *Miner) {
	for sep, root := range keyRoots(m.keys) {
		for x := range root.deps {
			for y := x + 1; y < len(root.deps); y++ {
				a, b := root.deps[x].Min(), root.deps[y].Max()
				m.SeparatorHolds(sep, a, b)
				m.GetFullMVDs(sep, a, b)
			}
		}
	}
}

// TestKeyAnswersMatchSearch checks the two facts the key memo answers a
// pair by (see keyMemo), for every key a mine asked about and every pair
// of the key root's dependents: the split table's verdict is the verdict
// of the early-stopping search kept from uniting the pair, and the full
// MVDs filtered from the key's one walk are the full MVDs that search
// returns. Each case mines at 1 and 4 workers, then answers every pair of
// every key the mine asked about. With pruning on it runs nursery and the
// planted relations at four thresholds, and the 17-column Letter analog,
// over the hashed key memo, at the two its full mine finishes at in a
// test's time. With pruning off, where a wide root's search covers the
// whole lattice above it, it runs the noisy planted relation at two
// thresholds and nursery at one. FuzzKeyAnswers covers both settings at
// random thresholds on random relations.
func TestKeyAnswersMatchSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("every pair of every key of 34 mines, each against two searches")
	}
	rels := parallelTestRelations(t)
	spec, err := datagen.Lookup("Letter", 40)
	if err != nil {
		t.Fatal(err)
	}
	rels["letter"] = spec.Generate()
	all := []float64{0, 0.02, 0.1, 0.3}
	var split, searched atomic.Int64
	// The cells are independent: each mines over its own oracles, so they
	// run as parallel subtests, and the counts are checked once all end.
	t.Run("cells", func(t *testing.T) {
		for _, c := range []struct {
			name    string
			eps     []float64
			pruning bool
		}{
			{"nursery", all, true},
			{"planted", all, true},
			{"planted-noisy", all, true},
			{"letter", []float64{0, 0.02}, true},
			{"planted-noisy", []float64{0, 0.1}, false},
			{"nursery", []float64{0.3}, false},
		} {
			r := rels[c.name]
			for _, eps := range c.eps {
				t.Run(fmt.Sprintf("%s/eps=%v/pruning=%v", c.name, eps, c.pruning), func(t *testing.T) {
					t.Parallel()
					for _, workers := range []int{1, 4} {
						opts := DefaultOptions(eps)
						opts.PairwiseConsistency = c.pruning
						opts.Workers = workers
						m := NewMiner(shared(r), opts)
						if _, err := m.MineMVDs(); err != nil {
							t.Fatal(err)
						}
						if hashed := m.keys.dense == nil; hashed != (r.NumCols() > bitset.DenseMaxAttrs) {
							t.Fatalf("%s: %d columns mined over a hashed key memo: %v", c.name, r.NumCols(), hashed)
						}
						answerEveryPair(m)
						opts.Workers = 1
						s, v, w := checkKeyAnswers(t, m, NewMiner(entropy.New(r), opts))
						keys := 0
						for _, root := range keyRoots(m.keys) {
							if len(root.deps) > 1 {
								keys++
							}
						}
						if w != keys {
							t.Fatalf("%s eps=%v pruning=%v workers=%d: %d of %d keys with a pair walked", c.name, eps, c.pruning, workers, w, keys)
						}
						split.Add(int64(s))
						searched.Add(int64(v))
					}
				})
			}
		}
	})
	if split.Load() == 0 || searched.Load() == 0 {
		t.Fatalf("%d split-table verdicts and %d searched verdicts checked, want both", split.Load(), searched.Load())
	}
}

// FuzzKeyAnswers is TestKeyAnswersMatchSearch on a random relation of at
// most 8 columns and 40 rows, at a random threshold, with pruning on or
// off: every key of the lattice, every pair of its root's dependents.
// With pruning on, each pair's list must also be what Fig. 17 run
// literally gives (literalFullMVDs).
func FuzzKeyAnswers(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(2), uint8(10), true)
	f.Add(int64(7), uint8(8), uint8(40), uint8(3), uint8(0), true)
	f.Add(int64(3), uint8(7), uint8(12), uint8(2), uint8(30), false)
	f.Add(int64(9), uint8(8), uint8(25), uint8(4), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, cols, rows, domain, eps uint8, pruning bool) {
		r := randomRelation(rand.New(rand.NewSource(seed)), 1+int(rows)%40, 2+int(cols)%7, 1+int(domain)%4)
		opts := DefaultOptions(float64(eps%64) / 100)
		opts.PairwiseConsistency = pruning
		m := NewMiner(entropy.New(r), opts)
		for sep := range bitset.AttrSet(1 << r.NumCols()) {
			m.keyRoot(sep)
		}
		answerEveryPair(m)
		checkKeyAnswers(t, m, NewMiner(entropy.New(r), opts))
		if !pruning {
			return
		}
		ref := entropy.New(r)
		for sep, root := range keyRoots(m.keys) {
			for x := range root.deps {
				for y := x + 1; y < len(root.deps); y++ {
					a, b := root.deps[x].Min(), root.deps[y].Max()
					got, want := m.GetFullMVDs(sep, a, b), literalFullMVDs(ref, sep, a, b, r.NumCols(), opts.Epsilon)
					if !slices.EqualFunc(got, want, mvd.MVD.Equal) {
						t.Fatalf("key %v pair (%d,%d): %v from the walk, %v from Fig. 17", sep, a, b, got, want)
					}
				}
			}
		}
	})
}

// TestVerdictMemoMatchesSearch checks MineMinSeps' separator tests,
// answered by the key roots' split tables and verdict slots, on every pair
// of nursery and a planted relation at two thresholds: the separators and
// the MinSepTrace (Processed, Wasted, MaxWastedRun, Separators) of each
// pair equal those of a replay that searches every test afresh — which
// runs strictly more searches over the lot — and after all pairs every
// split-table verdict and every settled slot equals a fresh search on a
// fresh miner. Both kinds of verdict must occur.
func TestVerdictMemoMatchesSearch(t *testing.T) {
	rels := parallelTestRelations(t)
	memo, literal, split, searched := 0, 0, 0, 0
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
			s, v, _ := checkKeyAnswers(t, m, newMiner(r, eps))
			split += s
			searched += v
		}
	}
	if split == 0 || searched == 0 || memo >= literal {
		t.Fatalf("%d split-table and %d searched verdicts; %d searches with the memo, %d without", split, searched, memo, literal)
	}
}

// replayRequests replays phase 1 of a mine literally — Fig. 5 for every
// pair, then getFullMVDs for every separator found — searching every
// request afresh. It returns the searches a mine that answers pairs from
// their keys must run, and the candidates they visit: one unrestricted
// walk per separator key, and one search per distinct (key, a's root
// dependent, b's root dependent) separator test whose two dependents
// differ on a root wider than splitMaxDeps. The roots come from
// literalRepair.
func replayRequests(r *relation.Relation, eps float64) (searches, visited int) {
	m := newMiner(r, eps)
	ref := entropy.New(r)
	type request struct{ key, da, db bitset.AttrSet }
	tested := make(map[request]bool)
	walked := make(map[bitset.AttrSet]bool)
	roots := make(map[bitset.AttrSet]mvd.MVD)
	holds := func(key bitset.AttrSet, a, b int) bool {
		root, ok := roots[key]
		if !ok {
			root, _ = mvd.Singletons(key, r.NumCols())
			root = literalRepair(ref, root, eps)
			roots[key] = root
		}
		before := m.SearchStats().Visited
		found := m.search(key, a, b, 1, false) > 0
		da, db := root.Deps[root.DepIndexOf(a)], root.Deps[root.DepIndexOf(b)]
		if bitset.Compare(da, db) > 0 {
			da, db = db, da
		}
		if req := (request{key, da, db}); len(root.Deps) > splitMaxDeps && da != db && !tested[req] {
			tested[req] = true
			searches++
			visited += m.SearchStats().Visited - before
		}
		return found
	}
	n := r.NumCols()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			seps, _ := literalMineMinSeps(m, a, b, func(sep bitset.AttrSet) bool { return holds(sep, a, b) })
			for _, sep := range seps {
				if !walked[sep] {
					walked[sep] = true
					before := m.SearchStats().Visited
					m.search(sep, -1, -1, 0, true)
					searches++
					visited += m.SearchStats().Visited - before
				}
			}
		}
	}
	return searches, visited
}

// TestOneWalkPerKey is the invariant of the key memo's answers: a mine
// walks each separator key once and runs one separator search per key and
// pair of dependents of a root wider than splitMaxDeps, at any fan-out. On
// nursery and a noisy planted relation at three thresholds, mined with 1
// and 8 workers, SearchStats' Searches and Visited equal a literal
// replay's count, every key the mine found as a separator is walked, and
// every answer equals a fresh search. A walk and a wide root's separator
// search that the stop cuts short settle nothing: a stopped caller reads
// the stopped walk's list, and a live one walks the key afresh. Then a mine is stopped
// from its progress hook and re-mined on the same Miner under a fresh
// context: the result equals an uninterrupted mine and every answer still
// equals a fresh search.
func TestOneWalkPerKey(t *testing.T) {
	rels := parallelTestRelations(t)
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		for _, eps := range []float64{0, 0.05, 0.3} {
			wantSearches, wantVisited := replayRequests(r, eps)
			for _, workers := range []int{1, 8} {
				opts := DefaultOptions(eps)
				opts.Workers = workers
				m := NewMiner(shared(r), opts)
				res, err := m.MineMVDs()
				if err != nil {
					t.Fatal(err)
				}
				if st := m.SearchStats(); st.Searches != wantSearches || st.Visited != wantVisited {
					t.Fatalf("%s eps=%v workers=%d: %d searches over %d candidates, replay has %d over %d",
						name, eps, workers, st.Searches, st.Visited, wantSearches, wantVisited)
				}
				for _, seps := range res.MinSeps {
					for _, sep := range seps {
						if root := m.keyRoot(sep); root.walk.Load() != slotDone {
							t.Fatalf("%s eps=%v workers=%d: separator %v not walked", name, eps, workers, sep)
						}
					}
				}
				if s, _, w := checkKeyAnswers(t, m, newMiner(r, eps)); s == 0 || w == 0 {
					t.Fatalf("%s eps=%v workers=%d: %d split-table verdicts, %d walks", name, eps, workers, s, w)
				}
			}
		}
	}

	r := rels["nursery"]
	done, stop := context.WithCancel(context.Background())
	stop()
	// Each search certainly stops before its first candidate: its key's
	// root is settled, and the context is done.
	m := newMiner(r, 0.3)
	key, a, b := bitset.Of(1, 7), 0, 8
	root := m.keyRoot(key)
	if root.slot(a, b) < 0 {
		t.Fatalf("root %v unites %d and %d: no walk to stop", root.deps, a, b)
	}
	got := m.WithContext(done).GetFullMVDs(key, a, b)
	if st := m.SearchStats(); st.Searches != 1 || len(got) != 0 || root.walk.Load() != slotOpen {
		t.Fatalf("a stopped walk (%d searches) returned %v and left the walk in state %d", st.Searches, got, root.walk.Load())
	}
	// Stopped again, a caller reads the partial list and walks nothing;
	// under a live context the key is walked afresh, and settles.
	if got = m.GetFullMVDs(key, a, b); m.SearchStats().Searches != 1 || len(got) != 0 {
		t.Fatalf("a stopped caller ran %d searches for %v", m.SearchStats().Searches, got)
	}
	got = m.WithContext(context.Background()).GetFullMVDs(key, a, b)
	if m.SearchStats().Searches != 2 || len(got) == 0 || root.walk.Load() != slotDone {
		t.Fatalf("a live walk after a stopped one: %d searches, %v, walk state %d", m.SearchStats().Searches, got, root.walk.Load())
	}
	checkKeyAnswers(t, m, newMiner(r, 0.3))
	opts := DefaultOptions(0.3)
	opts.PairwiseConsistency = false // the root of ∅ keeps all 9 dependents
	m = NewMiner(entropy.New(r), opts)
	root = m.keyRoot(bitset.Empty())
	if len(root.deps) <= splitMaxDeps {
		t.Fatalf("root of ∅ has %d dependents: no separator search to stop", len(root.deps))
	}
	holds := m.WithContext(done).SeparatorHolds(bitset.Empty(), a, b)
	if st := m.SearchStats(); st.Searches != 1 || holds || root.verdicts[root.slot(a, b)].Load() != slotOpen {
		t.Fatalf("a stopped separator search (%d searches) answered %v and settled its slot", st.Searches, holds)
	}

	for _, workers := range []int{1, 8} {
		opts := DefaultOptions(0.3)
		opts.Workers = workers
		want, _ := NewMiner(shared(r), opts).MineMVDs()
		ctx, cancel := context.WithCancel(context.Background())
		var m *Miner
		opts.Progress = func(p Progress) {
			if p.PairsDone >= 3 && ctx.Err() == nil {
				cancel()
				// The miner's stop flag is raised by a context.AfterFunc
				// on a goroutine of its own: wait for it, so that the
				// remaining pairs cannot all finish before the mine
				// learns of the stop.
				for !m.done.Load() {
					runtime.Gosched()
				}
			}
		}
		m = NewMiner(shared(r), opts)
		if _, err := m.WithContext(ctx).MineMVDs(); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: stopped mine err = %v, want context.Canceled", workers, err)
		}
		m.WithContext(context.Background())
		got, err := m.MineMVDs()
		if err != nil || !slices.EqualFunc(got.MVDs, want.MVDs, mvd.MVD.Equal) || !reflect.DeepEqual(got.MinSeps, want.MinSeps) {
			t.Fatalf("workers=%d: re-mine after a stop gives %d MVDs (err %v), an uninterrupted mine %d",
				workers, len(got.MVDs), err, len(want.MVDs))
		}
		checkKeyAnswers(t, m, newMiner(r, 0.3))
		cancel()
	}
}

// TestSearchKernelAllocs is the allocation gate of the search kernel. On
// a warm miner — entropies memoized, the key's root in the key memo, the
// scratch grown — a K = 1 search allocates nothing, however many
// candidates it visits and prunes, and a K = 0 search or a key's walk
// allocates only for the full MVDs it returns. A settled SeparatorHolds —
// a split-table bit, or a wide root's settled slot — allocates nothing and
// searches nothing, and so does reading a settled root from the dense key
// memo; a settled GetFullMVDs allocates only the slice it returns.
// MineMinSeps — settled roots, open slots, transversal buffers — allocates
// only for the slice it returns.
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
	root := m.keyRoot(key)
	if m.keys.dense == nil || m.keys.hashed != nil || m.roots.Len() != 0 {
		t.Fatalf("nursery's %d attributes: dense key memo %v, hashed %v, %d roots in the private table",
			r.NumCols(), m.keys.dense != nil, m.keys.hashed != nil, m.roots.Len())
	}
	if settled := testing.AllocsPerRun(20, func() {
		if m.keyRoot(key) != root {
			t.Fatal("a settled key root changed")
		}
	}); settled != 0 {
		t.Errorf("settled dense key-root read: %v allocs/run, want 0", settled)
	}

	// Pruning off keeps the root of ∅ at all 9 dependents, so its verdicts
	// are searched; the root of {1, 7} has 7 and a split table.
	opts := DefaultOptions(0.1)
	opts.PairwiseConsistency = false
	wide := NewMiner(entropy.New(r), opts)
	for _, c := range []struct {
		m     *Miner
		key   bitset.AttrSet
		split bool
	}{{wide, key, false}, {m, bitset.Of(1, 7), true}} {
		if root := c.m.keyRoot(c.key); (root.verdicts == nil) != c.split || root.slot(a, b) < 0 {
			t.Fatalf("root of %v: %d dependents, split table %v, want %v", c.key, len(root.deps), root.verdicts == nil, c.split)
		}
		c.m.SeparatorHolds(c.key, a, b)
		before = c.m.SearchStats()
		if settled := testing.AllocsPerRun(20, func() { c.m.SeparatorHolds(c.key, a, b) }); settled != 0 || c.m.SearchStats() != before {
			t.Errorf("settled SeparatorHolds on %v: %v allocs/run, searched %+v after %+v; want 0 allocs, no search",
				c.key, settled, c.m.SearchStats(), before)
		}
	}

	m = newMiner(r, 0.3)
	for _, pair := range [][2]int{{a, b}, {-1, -1}} {
		m.search(key, pair[0], pair[1], 0, true)
		out := m.fullMVDs(key)
		before = m.SearchStats()
		full := testing.AllocsPerRun(5, func() {
			m.search(key, pair[0], pair[1], 0, true)
			out = m.fullMVDs(key)
		})
		perRun = (m.SearchStats().Visited - before.Visited) / 6
		if perRun < 1000 {
			t.Fatalf("K = 0 search gate (pair %v) is too easy: %d candidates visited per run", pair, perRun)
		}
		// Per returned MVD: its dependents and its slot in the result,
		// which grows by doubling.
		if limit := float64(2*len(out) + 2); len(out) == 0 || full > limit {
			t.Errorf("warm K = 0 search (pair %v): %v allocs/run for %d MVDs over %d candidates, want ≤ %v",
				pair, full, len(out), perRun, limit)
		}
	}
	out := m.GetFullMVDs(key, a, b)
	before = m.SearchStats()
	settled := testing.AllocsPerRun(20, func() { out = m.GetFullMVDs(key, a, b) })
	if settled != 1 || len(out) == 0 || m.SearchStats() != before {
		t.Errorf("settled GetFullMVDs: %v allocs/run for %d MVDs, searched %+v after %+v; want 1 alloc, no search",
			settled, len(out), m.SearchStats(), before)
	}

	// At ε = 0.1, (2,3) has four separators: the enumerator takes edges
	// and hands out transversals, and reductions and transversals re-test
	// separators. At ε = 0.3, (1,6) tests two keys whose roots are wider
	// than splitMaxDeps. Every run reopens the wide roots' slots, so it
	// searches again.
	for _, c := range []struct {
		eps          float64
		a, b         int
		seps, visits int // at least, per run
	}{{0.1, 2, 3, 4, 0}, {0.3, 1, 6, 1, 100}} {
		m = newMiner(r, c.eps)
		seps := m.MineMinSeps(c.a, c.b)
		before = m.SearchStats()
		roots := keyRoots(m.keys) // every run asks for the same keys
		mine := testing.AllocsPerRun(5, func() {
			for _, root := range roots {
				for j := range root.verdicts {
					root.verdicts[j].Store(slotOpen)
				}
			}
			seps = m.MineMinSeps(c.a, c.b)
		})
		if perRun = (m.SearchStats().Visited - before.Visited) / 6; perRun < c.visits || len(seps) < c.seps {
			t.Fatalf("MineMinSeps gate at eps=%v (%d,%d) is too easy: %d separators, %d candidates visited per run",
				c.eps, c.a, c.b, len(seps), perRun)
		}
		if mine > 1 {
			t.Errorf("warm MineMinSeps at eps=%v (%d,%d): %v allocs/run for %d separators over %d candidates, want ≤ 1 (the result)",
				c.eps, c.a, c.b, mine, len(seps), perRun)
		}
	}
}

// TestHashedKeyMemoMatchesDense mines nursery and a noisy planted
// relation over the dense key memo their width gives and over the hashed
// one wider relations get, at 1 and 4 workers: the MVDs, the separators
// and every search counter agree, and every answer the hashed memo holds
// equals a fresh search.
func TestHashedKeyMemoMatchesDense(t *testing.T) {
	rels := parallelTestRelations(t)
	for _, name := range []string{"nursery", "planted-noisy"} {
		r := rels[name]
		for _, eps := range []float64{0.05, 0.3} {
			for _, workers := range []int{1, 4} {
				opts := DefaultOptions(eps)
				opts.Workers = workers
				dense := NewMiner(shared(r), opts)
				hashed := hashKeys(NewMiner(shared(r), opts))
				want, wantErr := dense.MineMVDs()
				got, gotErr := hashed.MineMVDs()
				if gotErr != nil || wantErr != nil {
					t.Fatal(gotErr, wantErr)
				}
				if !slices.EqualFunc(got.MVDs, want.MVDs, mvd.MVD.Equal) || !reflect.DeepEqual(got.MinSeps, want.MinSeps) {
					t.Fatalf("%s eps=%v workers=%d: hashed key memo mined %d MVDs, dense %d",
						name, eps, workers, len(got.MVDs), len(want.MVDs))
				}
				if g, w := hashed.SearchStats(), dense.SearchStats(); g != w {
					t.Fatalf("%s eps=%v workers=%d: hashed key memo searched %+v, dense %+v", name, eps, workers, g, w)
				}
				if s, _, w := checkKeyAnswers(t, hashed, newMiner(r, eps)); s == 0 || w == 0 {
					t.Fatalf("%s eps=%v workers=%d: the hashed key memo holds %d split-table verdicts, %d walks", name, eps, workers, s, w)
				}
			}
		}
	}
}

// TestFullMVDsFilterStops: the filter that keeps a walk's full MVDs
// compares its holders pair by pair, so a stop must cut it short, and the
// key it was filtering must stay open. 2^17 holders each split attributes
// 0…12 four ways, so none refines another and a filter run to the end
// makes 2^34 comparisons; under a context cancelled 20 ms in it must
// return within a second, with fewer MVDs than holders.
func TestFullMVDsFilterStops(t *testing.T) {
	m := newMiner(paperR(), 0)
	key := bitset.Of(1, 3)
	root := m.keyRoot(key)
	const holders = 1 << 17
	s := &m.scratch
	s.reset()
	for i := 0; i < holders; i++ {
		// Dependent d holds attribute d and each of 4…12 whose base-4
		// digit of i is d: distinct i, distinct splits.
		var deps [4]bitset.AttrSet
		for d := range deps {
			deps[d] = bitset.Single(d)
		}
		for x, v := 4, i; x <= 12; x, v = x+1, v/4 {
			deps[v%4] = deps[v%4].Add(x)
		}
		tail, _ := s.tail(len(deps))
		ref, ok := s.keep(append(tail, deps[:]...))
		if !ok {
			t.Fatalf("holder %d repeats an earlier one", i)
		}
		s.holders = append(s.holders, ref)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.WithContext(ctx)
	stop := time.AfterFunc(20*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	out := m.fullMVDs(bitset.Empty())
	if took := time.Since(start); took > time.Second || len(out) >= holders {
		t.Fatalf("filter of %d holders returned %d MVDs after %v; want a stop within 1s", holders, len(out), took)
	}
	if m.keyFulls(key, root); root.walk.Load() != slotOpen {
		t.Fatalf("a stopped walk left key %v in state %d", key, root.walk.Load())
	}
}
