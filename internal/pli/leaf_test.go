package pli

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/hsum"
)

// cachedSets lists the multi-attribute sets resident in c.
func cachedSets(c *Cache) []bitset.AttrSet {
	var out []bitset.AttrSet
	c.parts.Range(func(s bitset.AttrSet, _ cached) {
		if s.Len() > 1 {
			out = append(out, s)
		}
	})
	return out
}

// TestLeafRuleExact checks the structural rule EntropyWith streams by
// against what the chains actually do. For every block layout of 2..11
// columns, Get each subset on a fresh cache: whatever multi-attribute set
// the cache then holds besides the one asked for was materialized as an
// operand — of it, or of one of its operands. Over all subsets that is
// every set some chain reads; leaf must be false on exactly those.
func TestLeafRuleExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 2; n <= 11; n++ {
		r := randomRelation(rng, 12, n, 2)
		for _, blockSize := range []int{1, 2, 3, 4, 5, 10} {
			cfg := Config{BlockSize: blockSize, Shards: 1}
			operand := make(map[bitset.AttrSet]bool)
			for set := bitset.AttrSet(1); set <= bitset.Full(n); set++ {
				c := NewCache(r, cfg)
				c.Get(set)
				found := false
				for _, s := range cachedSets(c) {
					if s == set {
						found = true
					} else {
						operand[s] = true
					}
				}
				if set.Len() > 1 && !found {
					t.Fatalf("n=%d L=%d: Get(%v) did not publish its partition", n, blockSize, set)
				}
			}
			c := NewCache(r, cfg)
			for set := bitset.AttrSet(1); set <= bitset.Full(n); set++ {
				if set.Len() < 2 {
					continue
				}
				if got := c.leaf(set); got == operand[set] {
					t.Errorf("n=%d L=%d: leaf(%v) = %v, but read as an operand by some chain: %v",
						n, blockSize, set, got, operand[set])
				}
			}
		}
	}
}

// TestBlockLayout pins the layout rule — max(2, ⌈n/L⌉) blocks, widths
// differing by at most one, wider first — at the paper's L = 10, and checks
// what the rule is for: both halves of every split are non-empty and
// disjoint, and every multi-attribute set is either a chain leaf or an
// operand some set's split names, never both. Exhaustive up to 21
// attributes; at 33 the lattice is sampled and an operand is shown by the
// superset that reads it.
func TestBlockLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		n      int
		widths []int
	}{
		{1, []int{1}}, {2, []int{1, 1}}, {9, []int{5, 4}}, {10, []int{5, 5}}, {11, []int{6, 5}},
		{13, []int{7, 6}}, {20, []int{10, 10}}, {21, []int{7, 7, 7}}, {33, []int{9, 8, 8, 8}},
	} {
		c := &Cache{}
		c.blocks, c.blockOf = layout(tc.n, 10)
		var widths []int
		next := 0
		for b, block := range c.blocks {
			widths = append(widths, block.Len())
			for j := next; j < next+block.Len(); j++ {
				if !block.Contains(j) || int(c.blockOf[j]) != b {
					t.Fatalf("n=%d: attribute %d is not where consecutive blocks put it: blocks %v", tc.n, j, c.blocks)
				}
			}
			next += block.Len()
		}
		if !slices.Equal(widths, tc.widths) || next != tc.n {
			t.Fatalf("n=%d: block widths %v, want %v", tc.n, widths, tc.widths)
		}

		checkSplit := func(set bitset.AttrSet) (left, right bitset.AttrSet) {
			left, right = c.split(set)
			if left.IsEmpty() || right.IsEmpty() || left.Intersects(right) || left.Union(right) != set {
				t.Fatalf("n=%d: split(%v) = %v, %v", tc.n, set, left, right)
			}
			return left, right
		}
		full := bitset.Full(tc.n)
		if tc.n <= 21 {
			operand := make([]bool, full+1)
			for set := bitset.AttrSet(1); set <= full; set++ {
				if set.Len() >= 2 {
					left, right := checkSplit(set)
					operand[left], operand[right] = true, true
				}
			}
			for set := bitset.AttrSet(1); set <= full; set++ {
				if set.Len() >= 2 && c.leaf(set) == operand[set] {
					t.Fatalf("n=%d: leaf(%v) = %v, read as an operand: %v", tc.n, set, c.leaf(set), operand[set])
				}
			}
			continue
		}
		last := c.blocks[len(c.blocks)-1]
		for trial := 0; trial < 100_000; trial++ {
			set := bitset.AttrSet(rng.Uint64()) & bitset.AttrSet(rng.Uint64()) & full
			if set.Len() < 2 {
				continue
			}
			left, right := checkSplit(set)
			if left.Len() >= 2 && c.leaf(left) || right.Len() >= 2 && c.leaf(right) {
				t.Fatalf("n=%d: split(%v) names a leaf: %v, %v", tc.n, set, left, right)
			}
			if c.leaf(set) {
				continue
			}
			// Not a leaf: inside the last block it is the right operand of
			// itself plus attribute 0, clear of it the left operand of
			// itself plus the last block's first attribute.
			if set.SubsetOf(last) {
				if _, r := c.split(set.Add(0)); r != set {
					t.Fatalf("n=%d: %v is no leaf, yet %v does not read it", tc.n, set, set.Add(0))
				}
			} else if l, _ := c.split(set.Add(last.Min())); l != set {
				t.Fatalf("n=%d: %v is no leaf, yet %v does not read it", tc.n, set, set.Add(last.Min()))
			}
		}
	}
}

// TestStreamedEntropyBitIdentical: Entropy on a cache that has never seen
// the set must equal the materialized partition's entropy bit for bit, for
// every subset — unbudgeted, under a budget nothing fits, and with a spill
// tier — and a chain leaf must get there without the cache retaining
// anything for it: with its operands already resident, Entries and
// BytesLive do not move and the set is not cached afterwards.
func TestStreamedEntropyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	r := skewedRelation(rng, 300, 7)
	for _, blockSize := range []int{3, 10} {
		ref := NewCache(r, Config{BlockSize: blockSize})
		for name, cfg := range map[string]Config{
			"unbudgeted": {BlockSize: blockSize},
			"tiny":       {BlockSize: blockSize, MaxBytes: 1},
			"spill":      {BlockSize: blockSize, MaxBytes: 4 << 10, SpillDir: t.TempDir()},
		} {
			c := NewCache(r, cfg)
			leaves := 0
			for _, i := range rng.Perm(1 << 7) {
				set := bitset.AttrSet(i)
				if set.Len() < 2 {
					continue
				}
				want := ref.Get(set).Entropy()
				if !c.leaf(set) {
					if got := c.Entropy(set); got != want {
						t.Fatalf("L=%d %s: Entropy(%v) = %b, Get().Entropy() = %b", blockSize, name, set, got, want)
					}
					continue
				}
				leaves++
				ls, rs := c.split(set)
				c.Get(ls)
				c.Get(rs)
				before := c.Stats()
				if got := c.Entropy(set); got != want {
					t.Fatalf("L=%d %s: streamed Entropy(%v) = %b, Get().Entropy() = %b", blockSize, name, set, got, want)
				}
				after := c.Stats()
				if after.EntropyOnly != before.EntropyOnly+1 {
					t.Fatalf("L=%d %s: leaf %v was not streamed: %+v", blockSize, name, set, after)
				}
				if name == "unbudgeted" && (after.Entries != before.Entries || after.BytesLive != before.BytesLive) {
					t.Fatalf("L=%d %s: streaming leaf %v moved the cache: entries %d → %d, live %d → %d",
						blockSize, name, set, before.Entries, after.Entries, before.BytesLive, after.BytesLive)
				}
				if slices.Contains(cachedSets(c), set) {
					t.Fatalf("L=%d %s: leaf %v is cached after Entropy", blockSize, name, set)
				}
			}
			if leaves == 0 {
				t.Fatalf("L=%d: no leaf among the subsets", blockSize)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCanonicalizeOrdersByFirstRow is the property test of the linear-time
// canonical order: groups scattered into the arena's per-row slots with
// random distinct first rows must come out of canonicalize exactly as a
// comparison sort on the first row orders them — offsets and fill cursors,
// with the entropy sum the term function gives the surviving sizes —
// stripped groups untouched and the bitmap left clear, at row counts either
// side of every word, byte and int16 boundary and from no survivors to one
// group per two rows.
func TestCanonicalizeOrdersByFirstRow(t *testing.T) {
	rng := rand.New(rand.NewSource(6561))
	type group struct{ first, size int32 }
	a := NewArena()
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 32767, 32768, 65535, 65536, 65537, 100003} {
		sc := hsum.For(n)
		for _, k := range []int{0, 1, 2, n / 64, n / 7, n / 2} {
			if k > n {
				continue
			}
			a.groups = grow(a.groups, n)
			a.firsts = grow(a.firsts, (n+63)>>6)
			for i := range a.groups {
				a.groups[i] = rng.Int31() - 1<<30 // stale slots of earlier operations
			}
			var groups, survivors []group
			for _, first := range rng.Perm(n)[:k] {
				g := group{int32(first), 1 + rng.Int31n(5)}
				if rng.Intn(16) == 0 {
					g.size = 1<<12 - 2 + rng.Int31n(4) // either side of the term table's end
				}
				groups = append(groups, g)
				a.groups[g.first] = g.size
				a.firsts[g.first>>6] |= survives(g.size) << (g.first & 63)
				if g.size >= 2 {
					survivors = append(survivors, g)
				}
			}
			clusters, rows, sum := a.canonicalize(sc)

			slices.SortFunc(survivors, func(x, y group) int { return int(x.first - y.first) })
			wantOffsets := []int32{0}
			var wantHsum int64
			for _, g := range survivors {
				if got, want := a.groups[g.first], ^wantOffsets[len(wantOffsets)-1]; got != want {
					t.Fatalf("n=%d k=%d: group at row %d has cursor %d, want %d", n, k, g.first, got, want)
				}
				wantOffsets = append(wantOffsets, wantOffsets[len(wantOffsets)-1]+g.size)
				wantHsum += sc.Term(int(g.size))
			}
			if clusters != len(survivors) || rows != int(wantOffsets[len(survivors)]) {
				t.Fatalf("n=%d k=%d: shape %d clusters / %d rows, want %d / %d",
					n, k, clusters, rows, len(survivors), wantOffsets[len(survivors)])
			}
			if !slices.Equal(a.offsets, wantOffsets) {
				t.Fatalf("n=%d k=%d: offsets differ from the comparison-sorted order", n, k)
			}
			if sum != wantHsum {
				t.Fatalf("n=%d k=%d: hsum %d, want %d", n, k, sum, wantHsum)
			}
			for _, g := range groups {
				if g.size < 2 && a.groups[g.first] != g.size {
					t.Fatalf("n=%d k=%d: stripped group at row %d rewritten to %d", n, k, g.first, a.groups[g.first])
				}
			}
			for w, word := range a.firsts {
				if word != 0 {
					t.Fatalf("n=%d k=%d: bitmap word %d left set (%#x)", n, k, w, word)
				}
			}
		}
	}
}

// TestFreshLeafEntropyZeroAlloc is the allocation gate of the cold path: a
// first-time entropy of a chain leaf whose operands are resident — the
// common case of a cold mine — is a probe, two operand lookups and a count
// pass on arena scratch, and allocates nothing. Leaves are never cached, so
// every run below is such a first time.
func TestFreshLeafEntropyZeroAlloc(t *testing.T) {
	r := datagen.Nursery().Head(2000)
	for _, tc := range []struct {
		name      string
		blockSize int
		leaf      bitset.AttrSet
	}{
		{"two blocks", 10, bitset.Of(0, 1, 8)},        // {0,1} ∩ pinned {8}
		{"three blocks", 3, bitset.Of(0, 1, 3, 7, 8)}, // {0,1,3} ∩ {7,8}
	} {
		c := NewCache(r, Config{BlockSize: tc.blockSize})
		if !c.leaf(tc.leaf) {
			t.Fatalf("%s: %v is not a leaf", tc.name, tc.leaf)
		}
		ls, rs := c.split(tc.leaf)
		c.Get(ls)
		c.Get(rs)
		a := NewArena()
		want := c.EntropyWith(a, tc.leaf) // grow the scratch, build the probes
		if avg := testing.AllocsPerRun(100, func() {
			if c.EntropyWith(a, tc.leaf) != want {
				t.Fatal("streamed entropy drifted")
			}
		}); avg != 0 {
			t.Errorf("%s: fresh leaf entropy allocates %v times per run, want 0", tc.name, avg)
		}
		if st := c.Stats(); st.EntropyOnly != 102 {
			t.Errorf("%s: %d of 102 leaf entropies were streamed", tc.name, st.EntropyOnly)
		}
	}
}
