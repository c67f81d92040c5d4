package pli

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// FuzzArenaIntersect holds the intersection engine to its references on
// fuzzer-chosen relations: the row count comes from the first two bytes
// (up to 4,096, so every bitmap-word boundary is in reach), the next byte
// picks two to four columns and one byte per column its domain width, and
// the rest are the codes, row-major, cycled when they run out. Splitting
// the columns every way into a left and a right attribute set, the arena
// must build exactly the partition the map grouping and the direct
// construction build, the streaming count must return that partition's
// entropy bit for bit with the operands either way round, and the view
// form must describe it while live.
func FuzzArenaIntersect(f *testing.F) {
	f.Add([]byte{0, 8, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1})
	f.Add([]byte{0, 64, 2, 3, 2, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 65, 1, 0, 0, 0, 0})                       // constant columns: one cluster of everything
	f.Add([]byte{1, 1, 2, 255, 255, 255, 255, 1, 2, 3, 5, 8}) // wide domains: mostly singletons
	f.Add([]byte{15, 255, 0, 1, 7, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows := 1 + (int(data[0])<<8|int(data[1]))%4096
		ncols := 2 + int(data[2])%3
		data = data[3:]
		if len(data) <= ncols {
			return
		}
		domains, codes := data[:ncols], data[ncols:]
		cols := make([][]relation.Code, ncols)
		names := make([]string, ncols)
		for j := range cols {
			names[j] = string(rune('A' + j))
			cols[j] = make([]relation.Code, rows)
			for i := range cols[j] {
				cols[j][i] = relation.Code(codes[(i*ncols+j)%len(codes)]) % (1 + relation.Code(domains[j]))
			}
		}
		r, err := relation.FromCodes(names, cols)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena()
		all := bitset.Full(ncols)
		for left := bitset.AttrSet(1); left < all; left++ {
			right := all.Diff(left)
			p, q := FromAttrs(r, left), FromAttrs(r, right)
			want := FromAttrs(r, all)
			if ref := intersectMap(p, q); !Equal(ref, want) || ref.Entropy() != want.Entropy() {
				t.Fatalf("rows=%d %v∩%v: intersectMap != FromAttrs", rows, left, right)
			}
			if got := a.Intersect(p, q); !Equal(got, want) || got.Entropy() != want.Entropy() {
				t.Fatalf("rows=%d %v∩%v: Intersect != FromAttrs", rows, left, right)
			}
			if h, rev := a.IntersectEntropy(p, q), a.IntersectEntropy(q, p); h != want.Entropy() || rev != h {
				t.Fatalf("rows=%d %v∩%v: IntersectEntropy = %b, swapped %b, materialized %b", rows, left, right, h, rev, want.Entropy())
			}
		}
	})
}
