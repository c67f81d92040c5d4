// Package ci bridges MVDs and conditional independence.
//
// The paper rests on the equivalence (Geiger & Pearl, cited as [17]) of
// multivalued dependencies and *saturated* conditional independence (CI)
// statements: R ⊨ X ↠ Y|Z iff Y ⟂ Z | X holds in the empirical
// distribution of R, where XYZ exhausts the attribute set. This package
// makes the correspondence explicit — converting mined MVDs to CI
// statements — and provides two semi-graphoid derivations over CI
// statements (decomposition, weak union), whose soundness over empirical
// distributions is checked by property tests. Graphical-model tooling
// speaks CI; this is the adapter a downstream user needs to feed Maimon's
// output into it.
package ci

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/entropy"
	"repro/internal/mvd"
)

// Statement is the conditional independence statement Y ⟂ Z | X.
// Y and Z are symmetric; the canonical form keeps Y ≤ Z.
type Statement struct {
	Y, Z, X bitset.AttrSet
}

// New canonicalizes a CI statement; Y/Z order is normalized and overlap
// with the conditioning set X is removed (standard CI convention). It
// errors when either side becomes empty or the sides intersect.
func New(y, z, x bitset.AttrSet) (Statement, error) {
	y, z = y.Diff(x), z.Diff(x)
	if y.IsEmpty() || z.IsEmpty() {
		return Statement{}, fmt.Errorf("ci: empty side in (%v ⟂ %v | %v)", y, z, x)
	}
	if y.Intersects(z) {
		return Statement{}, fmt.Errorf("ci: sides overlap in (%v ⟂ %v | %v)", y, z, x)
	}
	if z < y {
		y, z = z, y
	}
	return Statement{Y: y, Z: z, X: x}, nil
}

// String renders the statement in letter notation.
func (s Statement) String() string {
	return fmt.Sprintf("%v ⟂ %v | %v", s.Y, s.Z, s.X)
}

// Format renders with attribute names.
func (s Statement) Format(names []string) string {
	return fmt.Sprintf("%s ⟂ %s | %s", s.Y.Format(names), s.Z.Format(names), s.X.Format(names))
}

// I measures the statement against an empirical distribution: the
// conditional mutual information I(Y;Z|X) in bits. The statement holds
// (at tolerance) iff I ≈ 0, and ε-holds iff I ≤ ε — identical to the
// J-measure of the corresponding standard MVD.
func (s Statement) I(o *entropy.Oracle) float64 { return o.MI(s.Y, s.Z, s.X) }

// Expand converts a generalized MVD X ↠ Y1|…|Ym into the m−1 saturated CI
// statements Yi ⟂ (rest) | X for i < m (the encoding of Beeri et al. that
// the paper reviews in Sec. 3.1).
func Expand(m mvd.MVD) []Statement {
	var out []Statement
	for i := 0; i < m.M()-1; i++ {
		std := m.ToStandard(i)
		s, err := New(std.Deps[0], std.Deps[1], std.Key)
		if err != nil {
			continue // cannot happen for well-formed MVDs
		}
		out = append(out, s)
	}
	sortStatements(out)
	return out
}

// Semi-graphoid axioms. Each derivation below is sound for empirical
// distributions (they are instances of Shannon inequalities); the
// property tests verify soundness numerically.

// Decompose returns Y ⟂ Z' | X for a non-empty Z' ⊆ Z: if the original
// statement holds, so does the decomposed one (I is monotone in Z).
func (s Statement) Decompose(zSub bitset.AttrSet) (Statement, error) {
	zSub = zSub.Intersect(s.Z)
	if zSub.IsEmpty() {
		return Statement{}, fmt.Errorf("ci: decomposition target empty")
	}
	return New(s.Y, zSub, s.X)
}

// WeakUnion returns Y ⟂ Z\W | X∪W for W ⊆ Z: conditioning on part of an
// independent side preserves independence of the rest.
func (s Statement) WeakUnion(w bitset.AttrSet) (Statement, error) {
	w = w.Intersect(s.Z)
	rest := s.Z.Diff(w)
	if rest.IsEmpty() {
		return Statement{}, fmt.Errorf("ci: weak union would empty a side")
	}
	return New(s.Y, rest, s.X.Union(w))
}

// MinedToCI converts a mined MVD set (Mε) into the distinct saturated CI
// statements it encodes, in canonical order.
func MinedToCI(ms []mvd.MVD) []Statement {
	seen := map[Statement]bool{}
	var out []Statement
	for _, m := range ms {
		for _, s := range Expand(m) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sortStatements(out)
	return out
}

func sortStatements(ss []Statement) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
}

// Report renders a statement list, one per line, with names.
func Report(ss []Statement, names []string) string {
	var b strings.Builder
	for _, s := range ss {
		b.WriteString("  ")
		b.WriteString(s.Format(names))
		b.WriteByte('\n')
	}
	return b.String()
}
