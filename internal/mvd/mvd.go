// Package mvd defines multivalued dependencies in the generalized,
// multi-dependent form of Beeri et al. that Maimon mines (paper Sec. 3.1):
//
//	X ↠ Y1 | Y2 | ... | Ym,   m ≥ 2,
//
// where X is the key and the dependents Yi are pairwise-disjoint,
// key-disjoint, non-empty attribute sets. The package provides the order
// and lattice structure the mining algorithms rely on: refinement ⪰
// (Sec. 5.2), the join ϕ∨ψ (Lemma 5.4), and the merge operation that
// generates search-space neighbors (Eq. 13).
package mvd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
)

// MVD is a generalized multivalued dependency. Construct values with New
// (which validates and canonicalizes); treat them as immutable.
type MVD struct {
	Key  bitset.AttrSet
	Deps []bitset.AttrSet // sorted by (cardinality, value); pairwise disjoint
}

// New validates and canonicalizes an MVD. It errors when fewer than two
// dependents are given, when a dependent is empty, or when key/dependents
// overlap.
func New(key bitset.AttrSet, deps []bitset.AttrSet) (MVD, error) {
	if len(deps) < 2 {
		return MVD{}, errors.New("mvd: need at least two dependents")
	}
	seen := key
	out := make([]bitset.AttrSet, len(deps))
	for i, d := range deps {
		if d.IsEmpty() {
			return MVD{}, errors.New("mvd: empty dependent")
		}
		if seen.Intersects(d) {
			return MVD{}, fmt.Errorf("mvd: dependent %v overlaps key or another dependent", d)
		}
		seen = seen.Union(d)
		out[i] = d
	}
	bitset.SortSets(out)
	return MVD{Key: key, Deps: out}, nil
}

// MustNew is New that panics on error; for literals in tests and examples.
func MustNew(key bitset.AttrSet, deps ...bitset.AttrSet) MVD {
	m, err := New(key, deps)
	if err != nil {
		panic(err)
	}
	return m
}

// Singletons returns the most refined MVD with the given key over the
// universe Ω = Full(n): every attribute outside the key is its own
// dependent. This is the root of the getFullMVDs search (Fig. 6, line 3).
// It errors if fewer than two attributes remain outside the key.
func Singletons(key bitset.AttrSet, n int) (MVD, error) {
	rest := key.Complement(n)
	if rest.Len() < 2 {
		return MVD{}, fmt.Errorf("mvd: key %v leaves %d free attributes, need >= 2", key, rest.Len())
	}
	deps := make([]bitset.AttrSet, 0, rest.Len())
	rest.ForEach(func(i int) bool {
		deps = append(deps, bitset.Single(i))
		return true
	})
	return MVD{Key: key, Deps: deps}, nil
}

// M returns the number of dependents.
func (m MVD) M() int { return len(m.Deps) }

// Attrs returns the set of all attributes mentioned: key ∪ dependents.
func (m MVD) Attrs() bitset.AttrSet {
	out := m.Key
	for _, d := range m.Deps {
		out = out.Union(d)
	}
	return out
}

// IsStandard reports whether the MVD has exactly two dependents.
func (m MVD) IsStandard() bool { return len(m.Deps) == 2 }

// DepIndexOf returns the index of the dependent containing attribute a, or
// -1 if a is in the key or absent.
func (m MVD) DepIndexOf(a int) int {
	for i, d := range m.Deps {
		if d.Contains(a) {
			return i
		}
	}
	return -1
}

// Separates reports whether attributes a and b lie in two distinct
// dependents (Def. 5.5).
func (m MVD) Separates(a, b int) bool {
	ia, ib := m.DepIndexOf(a), m.DepIndexOf(b)
	return ia >= 0 && ib >= 0 && ia != ib
}

// Merge returns the MVD with dependents i and j (indices into Deps)
// replaced by their union — merge_ij(φ) of Eq. (13), the step that
// generates a candidate's search-space neighbors. Canonical dependent
// order is kept, so indices of other dependents may move.
func (m MVD) Merge(i, j int) MVD {
	deps, _ := MergeDeps(make([]bitset.AttrSet, 0, len(m.Deps)-1), m.Deps, i, j)
	return MVD{Key: m.Key, Deps: deps}
}

// MergeDeps appends to dst the canonical dependent list deps with
// dependents i and j replaced by their union, and returns it together
// with the union's index in the merged list (counted from the start of
// what was appended). The union is larger than either part, so it sorts
// after both: one pass that drops i and j and inserts the union at its
// sorted position keeps the order, with no re-sort, and the index is at
// least max(i, j) − 1. deps must be canonical (sorted, pairwise disjoint).
// dst may be deps[:0] for an in-place merge — writes trail reads.
func MergeDeps(dst, deps []bitset.AttrSet, i, j int) ([]bitset.AttrSet, int) {
	if i == j {
		panic("mvd: merging a dependent with itself")
	}
	u := deps[i].Union(deps[j])
	start, at := len(dst), -1
	for k, d := range deps {
		if k == i || k == j {
			continue
		}
		if at < 0 && bitset.Compare(u, d) < 0 {
			at = len(dst) - start
			dst = append(dst, u)
		}
		dst = append(dst, d)
	}
	if at < 0 {
		at = len(dst) - start
		dst = append(dst, u)
	}
	return dst, at
}

// Refines reports whether m ⪰ other (Sec. 5.2): same key, and every
// dependent of m is contained in some dependent of other.
func (m MVD) Refines(other MVD) bool {
	if m.Key != other.Key {
		return false
	}
	for _, d := range m.Deps {
		ok := false
		for _, e := range other.Deps {
			if d.SubsetOf(e) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// StrictlyRefines reports m ≻ other: refinement that is not equality.
func (m MVD) StrictlyRefines(other MVD) bool {
	return m.Refines(other) && !m.Equal(other)
}

// Join returns ϕ∨ψ (Lemma 5.4): same key required, dependents are all
// non-empty pairwise intersections Ai∩Bj. Both MVDs must cover the same
// attribute set for the result to be a valid MVD.
func (m MVD) Join(o MVD) (MVD, error) {
	if m.Key != o.Key {
		return MVD{}, errors.New("mvd: join requires equal keys")
	}
	if m.Attrs() != o.Attrs() {
		return MVD{}, errors.New("mvd: join requires equal attribute coverage")
	}
	var deps []bitset.AttrSet
	for _, a := range m.Deps {
		for _, b := range o.Deps {
			if c := a.Intersect(b); !c.IsEmpty() {
				deps = append(deps, c)
			}
		}
	}
	return New(m.Key, deps)
}

// ToStandard collapses the MVD to the standard two-dependent form
// X ↠ Deps[i] | (everything else). Requires 0 <= i < M().
func (m MVD) ToStandard(i int) MVD {
	rest := bitset.Empty()
	for k, d := range m.Deps {
		if k != i {
			rest = rest.Union(d)
		}
	}
	out, err := New(m.Key, []bitset.AttrSet{m.Deps[i], rest})
	if err != nil {
		panic(err) // unreachable: inputs are disjoint by construction
	}
	return out
}

// Equal reports structural equality (canonical forms compared).
func (m MVD) Equal(o MVD) bool {
	if m.Key != o.Key || len(m.Deps) != len(o.Deps) {
		return false
	}
	for i := range m.Deps {
		if m.Deps[i] != o.Deps[i] {
			return false
		}
	}
	return true
}

// Fingerprint returns a compact comparable key identifying the MVD up to
// canonical form; used for dedup sets and map keys.
func (m MVD) Fingerprint() string {
	var b strings.Builder
	b.Grow(8 * (len(m.Deps) + 1))
	writeSet := func(s bitset.AttrSet) {
		v := uint64(s)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		b.Write(buf[:])
	}
	writeSet(m.Key)
	for _, d := range m.Deps {
		writeSet(d)
	}
	return b.String()
}

// String renders the MVD in the paper's letter notation, e.g. "AD↠CF|BE".
func (m MVD) String() string {
	parts := make([]string, len(m.Deps))
	for i, d := range m.Deps {
		parts[i] = d.String()
	}
	return m.Key.String() + "↠" + strings.Join(parts, "|")
}

// Format renders the MVD with explicit attribute names.
func (m MVD) Format(names []string) string {
	parts := make([]string, len(m.Deps))
	for i, d := range m.Deps {
		parts[i] = d.Format(names)
	}
	return m.Key.Format(names) + " ->> " + strings.Join(parts, " | ")
}

// Parse reads the letter notation produced by String, accepting both "↠"
// and "->" / "->>" as the arrow, e.g. "AD->CF|BE" or "BD ->> E|ACF".
func Parse(s string) (MVD, error) {
	var keyPart, depPart string
	for _, arrow := range []string{"↠", "->>", "->"} {
		if i := strings.Index(s, arrow); i >= 0 {
			keyPart, depPart = s[:i], s[i+len(arrow):]
			break
		}
	}
	if depPart == "" {
		return MVD{}, fmt.Errorf("mvd: no arrow in %q", s)
	}
	key, err := bitset.Parse(strings.TrimSpace(keyPart))
	if err != nil {
		return MVD{}, err
	}
	var deps []bitset.AttrSet
	for _, part := range strings.Split(depPart, "|") {
		d, err := bitset.Parse(strings.TrimSpace(part))
		if err != nil {
			return MVD{}, err
		}
		deps = append(deps, d)
	}
	return New(key, deps)
}

// Sort orders MVDs by ascending key cardinality, then key value, then
// dependents — the processing order BuildAcyclicSchema requires (Fig. 9,
// line 2) and the canonical order for deterministic output.
func Sort(ms []MVD) { slices.SortFunc(ms, Compare) }

// Compare is the canonical order used by Sort; it returns -1, 0 or +1
// like cmp.Compare.
func Compare(a, b MVD) int {
	if c := bitset.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Deps), len(b.Deps)); c != 0 {
		return c
	}
	for i := range a.Deps {
		if c := cmp.Compare(a.Deps[i], b.Deps[i]); c != 0 {
			return c
		}
	}
	return 0
}
