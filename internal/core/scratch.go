package core

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/stripe"
	"repro/internal/transversal"
)

// searchScratch is the storage one miner's getFullMVDs searches run in,
// reset at the start of each search and reused by the next, so a search
// allocates only while a buffer is still growing to the largest search
// seen. All candidates of a search share one key, so a candidate is just
// its canonical dependent list: the lists sit back to back in arena, the
// DFS stack and the visited set hold offsets into it. terms runs parallel
// to arena: terms[k] = H(key ∪ arena[k]), carried with the dependent from
// the key's root through every merge, so neither a candidate's J nor a
// pair test of its repair looks up an entropy the search already read.
type searchScratch struct {
	arena   []bitset.AttrSet
	terms   []float64
	stack   []candRef
	holders []candRef   // candidates found to hold, for GetFullMVDs
	sigs    []holderSig // the holders' signatures, while fullMVDs filters them

	// The visited set: open addressing with linear probing over a
	// power-of-two table kept at most half full. A slot whose epoch is
	// not the current search's is vacant, so starting a search costs one
	// increment, not a sweep of the table.
	slots []visitedSlot
	used  int
	epoch uint32

	// consistent is the bit-matrix of the repair in flight (see repair).
	consistent [bitset.MaxAttrs]uint64
	// root and rootTerms are where a key's root candidate is built before
	// it is published to the key memo.
	root      [bitset.MaxAttrs]bitset.AttrSet
	rootTerms [bitset.MaxAttrs]float64
	// splitUnions and splitH are a root's split table in the making (see
	// splitVerdicts): key ∪ X and its entropy for each union X of its
	// dependents, indexed by the bit set of X.
	splitUnions [1 << splitMaxDeps]bitset.AttrSet
	splitH      [1 << splitMaxDeps]float64

	// MineMinSeps' storage, reused pair after pair: the transversal
	// enumerator and the separators found before they are copied out.
	enum transversal.Enumerator
	seps []bitset.AttrSet
}

// candRef locates one candidate's dependents: arena[off : off+n], and
// their terms at the same offsets.
type candRef struct{ off, n int32 }

type visitedSlot struct {
	hash  uint64
	ref   candRef
	epoch uint32
}

func (s *searchScratch) deps(r candRef) []bitset.AttrSet {
	return s.arena[r.off : r.off+r.n]
}

func (s *searchScratch) termsOf(r candRef) []float64 {
	return s.terms[r.off : r.off+r.n]
}

// reset empties the arena, the stack, the holders and the visited set.
func (s *searchScratch) reset() {
	s.arena = s.arena[:0]
	s.terms = s.terms[:0]
	s.stack = s.stack[:0]
	s.holders = s.holders[:0]
	s.used = 0
	s.epoch++
	if s.epoch == 0 { // wrapped: stale slots could pass for current ones
		clear(s.slots)
		s.epoch = 1
	}
}

// tail returns empty slices at the end of the arena and of the terms with
// room for n dependents. Building a candidate there and then calling keep
// makes it part of the arena; building the next one there instead
// discards it. Slices into the arena taken before tail may be stale
// afterwards.
func (s *searchScratch) tail(n int) ([]bitset.AttrSet, []float64) {
	s.arena = slices.Grow(s.arena, n)
	s.terms = slices.Grow(s.terms, n)
	return s.arena[len(s.arena):len(s.arena)], s.terms[len(s.terms):len(s.terms)]
}

// keep records the candidate built at the arena's tail (its terms built
// at the terms' tail) as visited and returns its reference — unless an
// equal candidate was visited already, in which case the tail is left for
// reuse and ok is false. Equality is exact: the hash finds the slot, the
// dependents are compared word for word.
func (s *searchScratch) keep(cand []bitset.AttrSet) (ref candRef, ok bool) {
	if 2*(s.used+1) > len(s.slots) {
		s.growVisited()
	}
	h := hashDeps(cand)
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for ; s.slots[i].epoch == s.epoch; i = (i + 1) & mask {
		if s.slots[i].hash == h && slices.Equal(s.deps(s.slots[i].ref), cand) {
			return candRef{}, false
		}
	}
	ref = candRef{off: int32(len(s.arena)), n: int32(len(cand))}
	s.arena = s.arena[:len(s.arena)+len(cand)]
	s.terms = s.terms[:len(s.terms)+len(cand)]
	s.slots[i] = visitedSlot{hash: h, ref: ref, epoch: s.epoch}
	s.used++
	return ref, true
}

func (s *searchScratch) growVisited() {
	old := s.slots
	s.slots = make([]visitedSlot, max(256, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.epoch != s.epoch {
			continue
		}
		i := sl.hash & mask
		for s.slots[i].epoch == s.epoch {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// hashDeps hashes a canonical dependent list.
func hashDeps(deps []bitset.AttrSet) uint64 {
	h := uint64(len(deps))
	for _, d := range deps {
		h = (h ^ uint64(d)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return stripe.Hash(h)
}

// mergeTerms applies to a term list the merge mvd.MergeDeps just made of
// the dependent list beside it: dependents i < j out, their union, whose
// term is hu, in at index at (as MergeDeps reported it, so at ≥ j − 1).
// dst may be terms[:0] for an in-place merge — writes trail reads.
func mergeTerms(dst, terms []float64, i, j, at int, hu float64) []float64 {
	dst = append(dst, terms[:i]...)
	dst = append(dst, terms[i+1:j]...)
	dst = append(dst, terms[j+1:at+2]...)
	dst = append(dst, hu)
	return append(dst, terms[at+2:]...)
}
