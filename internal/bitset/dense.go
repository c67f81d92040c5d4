package bitset

// DenseMaxAttrs is the widest universe a Dense table covers. At 16
// attributes the lattice has 65,536 sets, so a table of 8-byte slots is
// 512 KiB; at the 13 columns the bench relation has, 64 KiB.
const DenseMaxAttrs = 16

// Dense is a table with one slot per subset of an n-attribute universe,
// indexed by the set itself: a lookup is one load, with no hash, probe or
// key compare. It stands in for a map keyed by AttrSet when the lattice
// is small enough to hold whole. A nil Dense is the universe that was too
// wide for one.
type Dense[T any] []T

// NewDense returns a zeroed table over n attributes, or nil when n is
// above DenseMaxAttrs.
func NewDense[T any](n int) Dense[T] {
	if n > DenseMaxAttrs {
		return nil
	}
	return make(Dense[T], 1<<n)
}

// At returns the slot of s, which must lie within the table's universe.
func (d Dense[T]) At(s AttrSet) *T { return &d[s] }
