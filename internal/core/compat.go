package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/mvd"
)

// Compatible implements Def. 7.1, the paper's novel pairwise
// characterization that reduces schema enumeration to maximal independent
// sets. MVDs ϕ1 = X ↠ A1|…|Am and ϕ2 = Y ↠ B1|…|Bk are compatible when
// there exist dependents Ai of ϕ1 and Bj of ϕ2 such that, simultaneously:
//
//  1. Y ⊆ XAi and X ⊆ YBj (the pair is split-free: neither key is split
//     by the other MVD), and
//  2. XAi meets at least two distinct dependents of ϕ2, and YBj meets at
//     least two distinct dependents of ϕ1 (each MVD genuinely splits the
//     other's complementary side).
//
// The support of any join tree is pairwise compatible (Thm. 7.2), so
// enumerating maximal compatible sets loses no acyclic schema.
func Compatible(phi1, phi2 mvd.MVD) bool {
	for i := range phi1.Deps {
		xai := phi1.Key.Union(phi1.Deps[i])
		if !phi2.Key.SubsetOf(xai) {
			continue
		}
		if countMeets(xai, phi2) < 2 {
			continue
		}
		for j := range phi2.Deps {
			ybj := phi2.Key.Union(phi2.Deps[j])
			if !phi1.Key.SubsetOf(ybj) {
				continue
			}
			if countMeets(ybj, phi1) < 2 {
				continue
			}
			return true
		}
	}
	return false
}

// keyMasks is the word-parallel prefilter of the incompatibility-graph
// build. Def. 7.1 splits into two independent halves, ϕ1 = X ↠ A1|…|Am
// offering some Ai and ϕ2 = Y ↠ B1|…|Bk some Bj, and the key part of each
// half fails on attribute membership alone:
//
//   - no Ai has Y ⊆ XAi iff Y meets two of ϕ1's dependents or has an
//     attribute in neither X nor any Ai;
//   - no Bj has X ⊆ YBj iff X holds two attributes ϕ2 places in different
//     dependents or an attribute in neither Y nor any Bj.
//
// Either failure makes the pair incompatible. Over a list of MVDs the
// masks hold, per attribute a and pair a < b, the column bitsets
// keyHas[a] = {j : a ∈ key(ms[j])}, outside[a] = {j : a ∉ attrs(ms[j])}
// and split[a][b] = {j : ms[j] places a and b in different dependents},
// so the key failures of a row against 64 columns at once are an OR of
// column words.
type keyMasks struct {
	k     int      // attributes covered: 0..k-1
	cols  int      // column words per 64 list positions
	words []uint64 // word-major: the column words of positions 64w… start at w·cols
}

// Column numbering within a word's block: keyHas[a] at a, outside[a] at
// k+a, split[a][b] (a < b) at 2k + b(b−1)/2 + a.
func (km *keyMasks) outside(a int) int32  { return int32(km.k + a) }
func (km *keyMasks) split(a, b int) int32 { return int32(2*km.k + b*(b-1)/2 + a) }

func newKeyMasks(ms []mvd.MVD) *keyMasks {
	var all bitset.AttrSet
	for _, m := range ms {
		all = all.Union(m.Attrs())
	}
	k := bits.Len64(uint64(all))
	km := &keyMasks{k: k, cols: 2*k + k*(k-1)/2}
	km.words = make([]uint64, (len(ms)+63)/64*km.cols)
	for j, psi := range ms {
		col := km.words[j/64*km.cols:][:km.cols]
		bit := uint64(1) << uint(j%64)
		attrs := psi.Attrs()
		for a := 0; a < k; a++ {
			if psi.Key.Contains(a) {
				col[a] |= bit
			} else if !attrs.Contains(a) {
				col[km.outside(a)] |= bit
			}
		}
		for x, d := range psi.Deps {
			for _, e := range psi.Deps[x+1:] {
				d.ForEach(func(a int) bool {
					e.ForEach(func(b int) bool {
						col[km.split(min(a, b), max(a, b))] |= bit
						return true
					})
					return true
				})
			}
		}
	}
	return km
}

// keyRow is one worker's scratch for keyFail: the row MVD's columns.
type keyRow struct {
	any  []int32 // columns in which any set bit is a key failure
	deps []int32 // keyHas columns of the row's dependents, one run each
	ends []int32 // end of each dependent's run in deps
}

func (km *keyMasks) newKeyRow() *keyRow {
	return &keyRow{
		any:  make([]int32, 0, km.cols),
		deps: make([]int32, 0, km.k),
		ends: make([]int32, 0, km.k),
	}
}

// keyFail writes into row the key failures of phi = ms[i] against every
// later position j > i: it does not touch the words before i's, and it
// clears the bits ≤ i of i's own word.
func (km *keyMasks) keyFail(s *keyRow, phi mvd.MVD, i int, row []uint64) {
	s.any, s.deps, s.ends = s.any[:0], s.deps[:0], s.ends[:0]
	attrs := phi.Attrs()
	for a := 0; a < km.k; a++ {
		switch {
		case phi.Key.Contains(a):
			s.any = append(s.any, km.outside(a))
			for b := 0; b < a; b++ {
				if phi.Key.Contains(b) {
					s.any = append(s.any, km.split(b, a))
				}
			}
		case !attrs.Contains(a):
			s.any = append(s.any, int32(a)) // keyHas[a]
		}
	}
	for _, d := range phi.Deps {
		d.ForEach(func(a int) bool {
			s.deps = append(s.deps, int32(a))
			return true
		})
		s.ends = append(s.ends, int32(len(s.deps)))
	}
	for w := i / 64; w < len(row); w++ {
		col := km.words[w*km.cols:][:km.cols]
		var fail, once, twice uint64
		for _, c := range s.any {
			fail |= col[c]
		}
		start := int32(0)
		for _, end := range s.ends {
			var meet uint64
			for _, a := range s.deps[start:end] {
				meet |= col[a]
			}
			twice |= once & meet
			once |= meet
			start = end
		}
		row[w] = fail | twice
	}
	row[i/64] &^= uint64(2)<<uint(i%64) - 1
}

// incompatibleRow fills row with ms[i]'s incompatibility edges to every
// later position j > i: the key failures, then the exact Compatible test
// on the pairs that survive them.
func (km *keyMasks) incompatibleRow(s *keyRow, ms []mvd.MVD, i int, row []uint64) {
	phi := ms[i]
	km.keyFail(s, phi, i, row)
	first := uint64(2)<<uint(i%64) - 1 // positions ≤ i in i's word
	for w := i / 64; w < len(row); w++ {
		live := ^row[w] &^ first
		first = 0
		if rest := len(ms) - 64*w; rest < 64 {
			live &= uint64(1)<<uint(rest) - 1
		}
		for live != 0 {
			b := bits.TrailingZeros64(live)
			live &= live - 1
			if !Compatible(phi, ms[64*w+b]) {
				row[w] |= 1 << uint(b)
			}
		}
	}
}

// countMeets returns how many dependents of m the set s intersects,
// early-exiting at 2 (only "< 2" is ever asked).
func countMeets(s bitset.AttrSet, m mvd.MVD) int {
	n := 0
	for _, d := range m.Deps {
		if s.Intersects(d) {
			n++
			if n == 2 {
				return n
			}
		}
	}
	return n
}
