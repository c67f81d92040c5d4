// Package bitset provides AttrSet, a compact set of attribute indices
// backed by a single uint64.
//
// Maimon manipulates sets of relational attributes pervasively: MVD keys and
// dependents, join-tree bags, separators, and hypergraph edges are all
// attribute sets. The paper's largest dataset has 45 columns (Voter State),
// so a 64-bit word suffices and gives O(1) set algebra, total ordering, and
// map-key hashing for free.
package bitset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxAttrs is the largest number of attributes an AttrSet can hold.
const MaxAttrs = 64

// AttrSet is a set of attribute indices in [0, MaxAttrs).
// The zero value is the empty set and is ready to use.
type AttrSet uint64

// Empty returns the empty attribute set.
func Empty() AttrSet { return 0 }

// Single returns the set {i}.
func Single(i int) AttrSet {
	checkIndex(i)
	return 1 << uint(i)
}

// Of returns the set containing the given indices.
func Of(indices ...int) AttrSet {
	var s AttrSet
	for _, i := range indices {
		s = s.Add(i)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) AttrSet {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("bitset: attribute count %d out of range [0,%d]", n, MaxAttrs))
	}
	if n == MaxAttrs {
		return ^AttrSet(0)
	}
	return (1 << uint(n)) - 1
}

func checkIndex(i int) {
	if i < 0 || i >= MaxAttrs {
		panic(fmt.Sprintf("bitset: attribute index %d out of range [0,%d)", i, MaxAttrs))
	}
}

// Add returns s ∪ {i}.
func (s AttrSet) Add(i int) AttrSet {
	checkIndex(i)
	return s | 1<<uint(i)
}

// Remove returns s \ {i}.
func (s AttrSet) Remove(i int) AttrSet {
	checkIndex(i)
	return s &^ (1 << uint(i))
}

// Contains reports whether i ∈ s.
func (s AttrSet) Contains(i int) bool {
	checkIndex(i)
	return s&(1<<uint(i)) != 0
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// Complement returns the complement of s within the universe {0,...,n-1}.
func (s AttrSet) Complement(n int) AttrSet { return Full(n) &^ s }

// IsEmpty reports whether s is the empty set.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Len returns |s|.
func (s AttrSet) Len() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊊ t.
func (s AttrSet) ProperSubsetOf(t AttrSet) bool { return s != t && s.SubsetOf(t) }

// Intersects reports whether s ∩ t ≠ ∅.
func (s AttrSet) Intersects(t AttrSet) bool { return s&t != 0 }

// Disjoint reports whether s ∩ t = ∅.
func (s AttrSet) Disjoint(t AttrSet) bool { return s&t == 0 }

// Min returns the smallest index in s, or -1 if s is empty.
func (s AttrSet) Min() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest index in s, or -1 if s is empty.
func (s AttrSet) Max() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Indices returns the members of s in increasing order.
func (s AttrSet) Indices() []int {
	out := make([]int, 0, s.Len())
	for t := s; t != 0; {
		i := bits.TrailingZeros64(uint64(t))
		out = append(out, i)
		t &^= 1 << uint(i)
	}
	return out
}

// ForEach calls f for each member of s in increasing order. It stops early
// if f returns false.
func (s AttrSet) ForEach(f func(i int) bool) {
	for t := s; t != 0; {
		i := bits.TrailingZeros64(uint64(t))
		if !f(i) {
			return
		}
		t &^= 1 << uint(i)
	}
}

// Subsets calls f for every subset of s, including the empty set and s
// itself. It stops early if f returns false. The number of subsets is
// 2^|s|; callers are responsible for keeping |s| small.
func (s AttrSet) Subsets(f func(sub AttrSet) bool) {
	// Standard subset-enumeration trick: iterate sub = (sub - s) & s.
	sub := AttrSet(0)
	for {
		if !f(sub) {
			return
		}
		if sub == s {
			return
		}
		sub = (sub - s) & s
	}
}

// String renders s as attribute letters when all indices are below 26
// (A, B, ..., Z, matching the paper's examples), and as {i,j,...} otherwise.
func (s AttrSet) String() string {
	if s == 0 {
		return "∅"
	}
	if s.Max() < 26 {
		var b strings.Builder
		s.ForEach(func(i int) bool {
			b.WriteByte(byte('A' + i))
			return true
		})
		return b.String()
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Format renders s using the given attribute names, joined by commas.
// Indices without a name fall back to their numeric form.
func (s AttrSet) Format(names []string) string {
	if s == 0 {
		return "∅"
	}
	var b strings.Builder
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		if i < len(names) {
			b.WriteString(names[i])
		} else {
			fmt.Fprintf(&b, "#%d", i)
		}
		return true
	})
	return b.String()
}

// Parse parses a set rendered by String in letters form ("ABD") or in the
// numeric form ("{0,1,3}"). It also accepts "∅" and "" as the empty set.
func Parse(s string) (AttrSet, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "∅" {
		return 0, nil
	}
	if strings.HasPrefix(s, "{") {
		if !strings.HasSuffix(s, "}") {
			return 0, fmt.Errorf("bitset: unterminated set literal %q", s)
		}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return 0, nil
		}
		var out AttrSet
		for _, part := range strings.Split(body, ",") {
			var i int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &i); err != nil {
				return 0, fmt.Errorf("bitset: bad index %q in %q", part, s)
			}
			if i < 0 || i >= MaxAttrs {
				return 0, fmt.Errorf("bitset: index %d out of range in %q", i, s)
			}
			out = out.Add(i)
		}
		return out, nil
	}
	var out AttrSet
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = out.Add(int(r - 'A'))
		case r >= 'a' && r <= 'z':
			out = out.Add(int(r - 'a'))
		case r == ' ':
		default:
			return 0, fmt.Errorf("bitset: bad attribute letter %q in %q", r, s)
		}
	}
	return out, nil
}

// Compare is the canonical order on sets: by cardinality, ties broken by
// value. It returns -1, 0 or +1 like cmp.Compare.
func Compare(a, b AttrSet) int {
	if c := cmp.Compare(a.Len(), b.Len()); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// SortSets orders a slice of sets by Compare. This is the canonical
// ordering used across the library so enumeration results are
// deterministic.
func SortSets(sets []AttrSet) { slices.SortFunc(sets, Compare) }

// Minimal reports whether target has no proper subset within sets.
// It is a convenience for tests over small families.
func Minimal(target AttrSet, sets []AttrSet) bool {
	for _, s := range sets {
		if s.ProperSubsetOf(target) {
			return false
		}
	}
	return true
}
