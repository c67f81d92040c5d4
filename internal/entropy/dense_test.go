package entropy

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/pli"
	"repro/internal/relation"
)

// wideRelation is the benchmark's `wide` relation: 13 columns, a planted
// chain of 4-attribute bags with 1 % noise, about 3,200 rows.
func wideRelation(t *testing.T) *relation.Relation {
	t.Helper()
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// hashedOracle returns an oracle over r whose memo is the shards' hash
// tables: a budget one byte short of the dense memo's 8·2ⁿ gives it up.
func hashedOracle(t *testing.T, r *relation.Relation) *Oracle {
	t.Helper()
	o := NewShared(r, pli.DefaultConfig())
	o.SetMemoBudget(8<<r.NumCols() - 1)
	if o.dense != nil {
		t.Fatalf("a budget below 8·2^%d bytes left the memo dense", r.NumCols())
	}
	return o
}

// TestEnginesAgreeAtWidth reads every non-empty attribute set of the
// 13-column `wide` relation from three sources — the dense oracle, the
// hashed (and, at this budget, evicting) oracle and NaiveH — and requires
// the same float64, bit for bit, twice over: cold, then from the memos.
// NaiveH takes a few seconds over all 8,191 sets, so -short checks the two
// oracles on every set and NaiveH on every set of at most two attributes
// and every 61st.
func TestEnginesAgreeAtWidth(t *testing.T) {
	r := wideRelation(t)
	n := r.NumCols()
	dense, hashed := New(r), hashedOracle(t, r)
	if dense.dense == nil {
		t.Fatalf("%d attributes: no dense memo", n)
	}
	checked := make([]bool, 1<<n)
	want := make([]float64, 1<<n)
	for s := bitset.AttrSet(1); s < 1<<n; s++ {
		if testing.Short() && s.Len() > 2 && s%61 != 0 {
			continue
		}
		checked[s], want[s] = true, NaiveH(r, s)
	}
	for round := 0; round < 2; round++ {
		for s := bitset.AttrSet(1); s < 1<<n; s++ {
			d, h := dense.H(s), hashed.H(s)
			if d != h || checked[s] && d != want[s] {
				t.Fatalf("round %d H(%v): dense %v, hashed %v, NaiveH %v (checked %v)", round, s, d, h, want[s], checked[s])
			}
		}
	}
	if st := hashed.Stats(); st.MemoEvictions == 0 || st.MemoBytes >= 8<<n {
		t.Fatalf("hashed oracle at a %d B budget: %+v", 8<<n-1, st)
	}
}

// TestSharedDenseConcurrentReads reads the dense memo of one oracle from
// four goroutines at once — through the oracle and through Local views,
// each in its own order, so cold and warm reads of the same slot race —
// and checks every value against a hashed oracle's. Run it under -race.
func TestSharedDenseConcurrentReads(t *testing.T) {
	r := datagen.Uniform(400, 10, 3, 61)
	n := r.NumCols()
	ref := hashedOracle(t, r)
	want := make([]float64, 1<<n)
	for s := range want {
		want[s] = ref.H(bitset.AttrSet(s))
	}
	o := NewShared(r, pli.DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var src interface{ H(bitset.AttrSet) float64 } = o
			if g%2 == 1 {
				l := o.Local()
				defer l.Release()
				src = l
			}
			for _, s := range rng.Perm(len(want)) {
				if got := src.H(bitset.AttrSet(s)); got != want[s] {
					t.Errorf("goroutine %d: H(%v) = %v, want %v", g, bitset.AttrSet(s), got, want[s])
					return
				}
			}
		}()
	}
	wg.Wait()
	st := o.Stats()
	// The empty set's four calls are never cached; every other set is
	// computed once.
	if st.HCalls != 4<<n || st.HCalls-st.HCached != 1<<n-1+4 {
		t.Fatalf("%d calls, %d cached: want %d calls and each non-empty set computed once", st.HCalls, st.HCached, 4<<n)
	}
}

// TestMemoBudgetDenseContract pins what a budget does to a memo that
// could be dense. Unbudgeted, or with a budget of at least 8·2ⁿ bytes,
// the memo is the dense table: it reports exactly 8·2ⁿ bytes and never
// evicts. Below that, the memo is hashed and bounded: it never rests
// above the budget. Either way every entropy is exact.
func TestMemoBudgetDenseContract(t *testing.T) {
	r := datagen.Uniform(300, 9, 3, 53)
	n := r.NumCols()
	size := int64(8 << n)
	for _, budget := range []int64{0, size, 4 * size, size - 1, size / 4} {
		o := NewShared(r, pli.DefaultConfig())
		o.SetMemoBudget(budget)
		if dense := o.dense != nil; dense != (budget == 0 || budget >= size) {
			t.Fatalf("budget %d over %d attributes: dense = %v", budget, n, dense)
		}
		for round := 0; round < 2; round++ {
			bitset.Full(n).Subsets(func(s bitset.AttrSet) bool {
				if got, want := o.H(s), NaiveH(r, s); got != want {
					t.Fatalf("budget %d: H(%v) = %v, want %v", budget, s, got, want)
				}
				st := o.Stats()
				if o.dense != nil && (st.MemoBytes != size || st.MemoEvictions != 0) {
					t.Fatalf("budget %d: dense memo reports %d B and %d evictions, want %d B and none",
						budget, st.MemoBytes, st.MemoEvictions, size)
				}
				if o.dense == nil && st.MemoBytes > budget {
					t.Fatalf("budget %d: MemoBytes %d at rest", budget, st.MemoBytes)
				}
				return true
			})
		}
	}
}
