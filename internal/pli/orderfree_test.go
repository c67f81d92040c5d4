package pli_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/pli"
	"repro/internal/relation"
)

// orderFreeRelation has a near-constant column (one class of about half the
// rows, so past 8k rows a cluster outgrows the term table), a three-valued
// one, one of about √rows values and a nearly distinct one — and the same
// rows again in a random order.
func orderFreeRelation(t *testing.T, rng *rand.Rand, rows int) (r, shuffled *relation.Relation) {
	t.Helper()
	domains := []int{2, 3, 1 + rows/(1+rows/200), rows}
	cols := make([][]relation.Code, len(domains))
	for j, d := range domains {
		cols[j] = make([]relation.Code, rows)
		for i := range cols[j] {
			cols[j][i] = relation.Code(rng.Intn(d))
		}
	}
	order := rng.Perm(rows)
	perm := make([][]relation.Code, len(cols))
	for j := range cols {
		perm[j] = make([]relation.Code, rows)
		for i, src := range order {
			perm[j][i] = cols[j][src]
		}
	}
	names := []string{"A", "B", "C", "D"}
	r, err := relation.FromCodes(names, cols)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err = relation.FromCodes(names, perm)
	if err != nil {
		t.Fatal(err)
	}
	return r, shuffled
}

// TestEntropyIsOrderFree: the entropy of an attribute set is a function of
// its class-size multiset and nothing else. Every route to it — the
// single-attribute builder, the direct hash grouping, a materialized
// intersection, the streaming count with the operands either way round,
// the naive reference, and all of those again over the same rows in
// another order — must return the same float64, compared with ==, on both
// sides of the int16 row boundary and with clusters on both sides of the
// term table's end.
func TestEntropyIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	a := pli.NewArena()
	biggest := 0
	for _, rows := range []int{1, 2, 3, 57, 1000, 9001, 32767, 32768} {
		r, shuffled := orderFreeRelation(t, rng, rows)
		all := bitset.Full(r.NumCols())
		direct := make([]*pli.Partition, all+1)
		directShuffled := make([]*pli.Partition, all+1)
		for set := bitset.AttrSet(1); set <= all; set++ {
			direct[set], directShuffled[set] = pli.FromAttrs(r, set), pli.FromAttrs(shuffled, set)
		}
		for set := bitset.AttrSet(1); set <= all; set++ {
			want := entropy.NaiveH(r, set)
			check := func(route string, got float64) {
				t.Helper()
				if got != want {
					t.Fatalf("rows=%d H(%v) via %s = %b, NaiveH = %b", rows, set, route, got, want)
				}
			}
			check("NaiveH over shuffled rows", entropy.NaiveH(shuffled, set))
			check("FromAttrs", direct[set].Entropy())
			check("FromAttrs over shuffled rows", directShuffled[set].Entropy())
			if set.Len() == 1 {
				p := pli.SingleAttribute(r, set.Min())
				check("SingleAttribute", p.Entropy())
				check("SingleAttribute over shuffled rows", pli.SingleAttribute(shuffled, set.Min()).Entropy())
				for ci := 0; ci < p.NumClusters(); ci++ {
					biggest = max(biggest, len(p.Cluster(ci)))
				}
				continue
			}
			// Every way to cut the set into two operands.
			for left := (set - 1) & set; left != 0; left = (left - 1) & set {
				right := set.Diff(left)
				p, q := direct[left], direct[right]
				check("Intersect", a.Intersect(p, q).Entropy())
				check("IntersectEntropy(p, q)", a.IntersectEntropy(p, q))
				check("IntersectEntropy(q, p)", a.IntersectEntropy(q, p))
				check("IntersectEntropy over shuffled rows", a.IntersectEntropy(directShuffled[left], directShuffled[right]))
			}
		}
	}
	if biggest < 1<<12 {
		t.Fatalf("largest cluster seen has %d rows: the computed fallback of the term function never ran", biggest)
	}
}
