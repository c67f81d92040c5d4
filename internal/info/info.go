// Package info computes the information-theoretic J-measures that define
// approximation in Maimon (paper Secs. 3.2-5): J of an MVD, of a join tree
// (Eq. 6), and of an acyclic schema (J depends only on the schema, Lee).
// Values are in bits; J = 0 iff the corresponding dependency holds exactly
// (Lee's theorem, Thm. 3.3).
package info

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/mvd"
	"repro/internal/schema"
)

// Tol absorbs floating-point cancellation in entropy arithmetic: empirical
// entropies are sums of k·log2(k) terms whose differences carry ~1e-16
// noise, so exact-threshold comparisons (J ≤ ε with ε = 0) would be
// unstable without it. Every threshold test in the library goes through
// LeqEps so miners and brute-force baselines agree on borderline values.
//
// What the entropies themselves carry: Σ k·log2 k is a fixed-point integer
// with s = min(52, 62 − bitlen⌈n·log2 n⌉) fractional bits (package hsum),
// each class's term rounded once. A term is off by at most 2^−(s+1); an
// n-row relation has at most n/2 classes of two rows or more, so the sum
// divided by n — H — is off by at most 2^−(s+2), and a J built from four
// entropies by at most 2^−s: 1.4e−14 at 3,240 rows (s = 46), 7e−12 at 10⁶
// (s = 37), and below Tol for every n < 1.5·10⁸ (s = 30). On top of that
// sits what any float64 evaluation of k·log2 k has, a relative 2^−51 or so
// per term — at most log2 n·2^−51 < 2^−46 in H up to 2³¹ rows. Being an
// integer sum, H is the same value from every builder and in every order,
// so these are bounds on the distance to the true entropy, not on
// disagreement between paths: there is none.
const Tol = 1e-9

// LeqEps reports j ≤ eps up to Tol.
func LeqEps(j, eps float64) bool { return j <= eps+Tol }

// Source is the entropy interface the J-measures are computed against:
// joint entropy and conditional mutual information over one relation.
// Both *entropy.Oracle and the worker-local *entropy.Local views satisfy
// it, so miners can thread per-goroutine arenas through the same code.
type Source interface {
	H(attrs bitset.AttrSet) float64
	MI(y, z, x bitset.AttrSet) float64
}

// JMVD returns
//
//	J(X ↠ Y1|…|Ym) = Σ H(XYi) − (m−1)·H(X) − H(XY1…Ym)
//
// For m = 2 this equals I(Y1;Y2|X). The result is clamped at 0 to absorb
// floating-point cancellation; J is a Shannon inequality and never truly
// negative.
func JMVD(o Source, m mvd.MVD) float64 {
	var terms [bitset.MaxAttrs]float64
	all := m.Key
	for i, d := range m.Deps {
		terms[i] = o.H(m.Key.Union(d))
		all = all.Union(d)
	}
	return JMVDTerms(terms[:len(m.Deps)], o.H(m.Key), o.H(all))
}

// JMVDTerms is JMVD over entropies the caller already holds: terms[i] =
// H(XYi), hx = H(X), hall = H(XY1…Ym). It is the one summation JMVD
// itself uses, so a caller carrying the terms gets the same value bit for
// bit.
func JMVDTerms(terms []float64, hx, hall float64) float64 {
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	v := sum - float64(len(terms)-1)*hx - hall
	if v < 0 {
		return 0
	}
	return v
}

// JTree returns Lee's measure of a join tree (Eq. 6):
//
//	J(T) = Σ_v H(χ(v)) − Σ_(u,v) H(χ(u)∩χ(v)) − H(χ(T))
func JTree(o Source, t *schema.JoinTree) float64 {
	v := 0.0
	for _, bag := range t.Bags {
		v += o.H(bag)
	}
	for _, e := range t.Edges {
		v -= o.H(t.Bags[e[0]].Intersect(t.Bags[e[1]]))
	}
	v -= o.H(t.Attrs())
	if v < 0 {
		return 0
	}
	return v
}

// JSchema returns J(S) for an acyclic schema by constructing any join tree
// (Lee proved J is independent of the choice). It errors when the schema
// is not acyclic.
func JSchema(o Source, s schema.Schema) (float64, error) {
	t, err := schema.BuildJoinTree(s)
	if err != nil {
		return 0, fmt.Errorf("info: J undefined: %w", err)
	}
	return JTree(o, t), nil
}

// TreeMISum evaluates the right-hand side of the identity (9) of Thm. 5.1:
//
//	J(T) = Σ_{i=2..m} I(Ω_{1:(i-1)} ; Ω_i | Δ_i)
//
// over the tree's depth-first order. Tests assert it equals JTree.
func TreeMISum(o Source, t *schema.JoinTree) float64 {
	order, parents := t.DepthFirstOrder()
	var prefix bitset.AttrSet
	sum := 0.0
	for k, u := range order {
		if k == 0 {
			prefix = t.Bags[u]
			continue
		}
		delta := t.Bags[u].Intersect(t.Bags[parents[u]])
		sum += o.MI(prefix.Diff(delta), t.Bags[u].Diff(delta), delta)
		prefix = prefix.Union(t.Bags[u])
	}
	return sum
}

// SupportMVDBound evaluates max and sum of J over the support MVDs of the
// tree — the two sides of the Shannon inequality (10) of Thm. 5.1:
//
//	max_i J(ϕ_i)  ≤  J(T)  ≤  Σ_i J(ϕ_i)
func SupportMVDBound(o Source, t *schema.JoinTree) (max, sum float64) {
	for _, m := range t.Support() {
		j := JMVD(o, m)
		if j > max {
			max = j
		}
		sum += j
	}
	return max, sum
}
