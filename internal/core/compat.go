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

// keyMasks holds the column planes of the incompatibility-graph build,
// which decides Def. 7.1 for one row MVD ϕ = X ↠ A1|…|Am against 64
// column MVDs ψ = Y ↠ B1|…|Bk at a time, in words and without branches.
// For each block of 64 listed MVDs and each attribute a it keeps
//
//   - K[a]: a ∈ key(ψ);
//   - On_p[a] and Off_p[a] for p < L = max(1, ⌈log₂ D⌉), D the most
//     dependents of any listed MVD: a is in a dependent of ψ whose index
//     has bit p set, resp. clear.
//
// OR-ing a set G's planes gives k(G) (G meets key(ψ)), on_p(G) and
// off_p(G). Then p(G) = on_0(G) ∨ off_0(G) says G meets a dependent of
// ψ, and split(G) = ⋁_p on_p(G) ∧ off_p(G) says G meets two of them (two
// distinct indices differ in some bit). Def. 7.1 is the conjunction of
// two independent halves, H(ϕ,ψ) ∧ H(ψ,ϕ), where H(ϕ,ψ) asks for an Ax
// with Y ⊆ XAx and XAx meeting two dependents of ψ:
//
//	H(ϕ,ψ) = ⋁_x ¬(k(attrs outside ϕ) ∨ ⋁_{y≠x} k(Ay)) ∧ split(XAx)
//
// H(ψ,ϕ) first needs X ⊆ attrs(ψ); then one of three cases holds:
//
//  1. p(X) ∧ ¬split(X): X∖Y lies in one dependent B* of ψ, and Ax meets
//     YB* iff k(Ax) ∨ ⋁_{a∈Ax} ⋀_p (on_p(X) ? On_p[a] : Off_p[a]). Two
//     such x are needed.
//  2. ¬p(X), so X ⊆ Y: two x with k(Ax) are enough, and so is one if
//     another Ay has p(Ay) ∧ ¬k(Ay).
//  3. No Ax meets Y and X ⊆ Y: for full MVDs a pair with the same key.
//     The scalar Compatible decides these bits, and only these.
//
// The edge is ¬(H(ϕ,ψ) ∧ H(ψ,ϕ)). A row word costs about
// |attrs(ϕ)|·(1 + 2L) loads, however many of its pairs are compatible.
type keyMasks struct {
	k      int      // attributes covered: 0..k-1
	l      int      // index bits L
	stride int      // planes per attribute: K, then On_p and Off_p interleaved
	block  int      // words per 64 list positions: k·stride
	words  []uint64 // block-major: the planes of positions 64w… start at w·block
}

// maxIndexBits bounds L: an MVD over 64 attributes has at most 64
// dependents.
const maxIndexBits = 6

func newKeyMasks(ms []mvd.MVD) *keyMasks {
	var all bitset.AttrSet
	d := 2
	for _, m := range ms {
		all = all.Union(m.Attrs())
		d = max(d, len(m.Deps))
	}
	km := &keyMasks{k: bits.Len64(uint64(all)), l: bits.Len(uint(d - 1))}
	km.stride = 1 + 2*km.l
	km.block = km.k * km.stride
	km.words = make([]uint64, (len(ms)+63)/64*km.block)
	for j, psi := range ms {
		blk := km.words[j/64*km.block:][:km.block]
		bit := uint64(1) << uint(j%64)
		psi.Key.ForEach(func(a int) bool {
			blk[a*km.stride] |= bit
			return true
		})
		for x, dep := range psi.Deps {
			dep.ForEach(func(a int) bool {
				for p := range km.l {
					on := x >> uint(p) & 1 // On_p at 1+2p, Off_p at 2+2p
					blk[a*km.stride+2+2*p-on] |= bit
				}
				return true
			})
		}
	}
	return km
}

// keyRow is one worker's scratch for incompatibleRow: the plane offsets
// of the row MVD's attributes in one run — the attributes outside it,
// then its key, then each dependent — and the end of each part.
type keyRow struct {
	offs []int32
	ends []int32
}

func (km *keyMasks) newKeyRow() *keyRow {
	return &keyRow{
		offs: make([]int32, 0, km.k),
		ends: make([]int32, 0, km.k+2),
	}
}

// incompatibleRow fills row with ms[i]'s incompatibility edges to every
// later position j > i: it does not touch the words before i's, and it
// clears the bits ≤ i of i's own word and those past the list.
func (km *keyMasks) incompatibleRow(s *keyRow, ms []mvd.MVD, i int, row []uint64) {
	phi := ms[i]
	s.offs, s.ends = s.offs[:0], s.ends[:0]
	part := func(set bitset.AttrSet) {
		set.ForEach(func(a int) bool {
			s.offs = append(s.offs, int32(a*km.stride))
			return true
		})
		s.ends = append(s.ends, int32(len(s.offs)))
	}
	part(phi.Attrs().Complement(km.k))
	part(phi.Key)
	for _, d := range phi.Deps {
		part(d)
	}
	outside, key := s.offs[:s.ends[0]], s.offs[s.ends[0]:s.ends[1]]
	l := km.l
	for w := i / 64; w < len(row); w++ {
		blk := km.words[w*km.block:][:km.block]
		var kOut uint64
		for _, o := range outside {
			kOut |= blk[o]
		}
		// The key X: X ⊆ attrs(ψ), and on_p(X), off_p(X).
		inX := ^uint64(0)
		var onX, offX [maxIndexBits]uint64
		for _, o := range key {
			pl := blk[o:][:1+2*l]
			inX &= pl[0] | pl[1] | pl[2]
			for p := range l {
				onX[p] |= pl[1+2*p]
				offX[p] |= pl[2+2*p]
			}
		}
		var splitX uint64
		for p := range l {
			splitX |= onX[p] & offX[p]
		}
		pX := onX[0] | offX[0]
		// The dependents, folded as they come: which meet Y (once,
		// twice), which split XAx, which meet YB*, which meet a
		// dependent of ψ but not Y.
		var onceK, twiceK, anySplit, keySplit, onceM, twiceM, pNotK uint64
		start := s.ends[1]
		for _, end := range s.ends[2:] {
			kA, inB, split, pA := km.foldDep(blk, s.offs[start:end], &onX, &offX)
			start = end
			meet := kA | inB
			twiceK |= onceK & kA
			onceK |= kA
			anySplit |= split
			keySplit |= split & kA
			twiceM |= onceM & meet
			onceM |= meet
			pNotK |= pA &^ kA
		}
		// H(ϕ,ψ), then H(ψ,ϕ) by cases 1 and 2; case 3 bits go scalar.
		h1 := ^(kOut | twiceK) & (onceK&keySplit | ^onceK&anySplit)
		h2 := inX & (pX&^splitX&twiceM | ^pX&(twiceK|onceK&pNotK))
		sameKey := h1 & inX &^ pX &^ onceK
		edge := ^(h1 & h2)
		valid := ^uint64(0)
		if w == i/64 {
			valid <<= uint(i%64) + 1
		}
		if rest := len(ms) - 64*w; rest < 64 {
			valid &= uint64(1)<<uint(rest) - 1
		}
		edge &= valid
		for b := sameKey & valid; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			if Compatible(phi, ms[64*w+j]) {
				edge &^= 1 << uint(j)
			}
		}
		row[w] = edge
	}
}

// foldDep ORs the planes of one dependent A of the row MVD ϕ = X ↠ …,
// given by its attributes' plane offsets in blk, into k(A), whether A
// meets the dependent of ψ holding X∖key(ψ) (read where that is one
// dependent), split(XA) and p(A).
func (km *keyMasks) foldDep(blk []uint64, offs []int32, onX, offX *[maxIndexBits]uint64) (kA, inB, split, pA uint64) {
	l := km.l
	var onA, offA [maxIndexBits]uint64
	for _, o := range offs {
		pl := blk[o:][:1+2*l]
		kA |= pl[0]
		sel := ^uint64(0)
		for p := range l {
			on, off := pl[1+2*p], pl[2+2*p]
			onA[p] |= on
			offA[p] |= off
			sel &= off ^ onX[p]&(on^off)
		}
		inB |= sel
	}
	for p := range l {
		split |= (onX[p] | onA[p]) & (offX[p] | offA[p])
	}
	return kA, inB, split, onA[0] | offA[0]
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
