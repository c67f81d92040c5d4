package schema

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

func at(t *testing.T, s string) bitset.AttrSet {
	t.Helper()
	a, err := bitset.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return a
}

// paperSchema is the Fig. 1 decomposition {ABD, ACD, BDE, AF}.
func paperSchema(t *testing.T) Schema {
	return MustNew(at(t, "ABD"), at(t, "ACD"), at(t, "BDE"), at(t, "AF"))
}

func TestNewCanonicalizes(t *testing.T) {
	s, err := New([]bitset.AttrSet{at(t, "AB"), at(t, "A"), at(t, "AB"), bitset.Empty(), at(t, "CD")})
	if err != nil {
		t.Fatal(err)
	}
	// "A" ⊂ "AB" is dropped, duplicate and empty dropped.
	if s.M() != 2 {
		t.Fatalf("M = %d, want 2 (%v)", s.M(), s)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := New([]bitset.AttrSet{bitset.Empty()}); err == nil {
		t.Fatal("all-empty schema accepted")
	}
}

func TestWidthMeasures(t *testing.T) {
	s := paperSchema(t)
	if s.Width() != 3 {
		t.Fatalf("width = %d", s.Width())
	}
	if s.IntersectionWidth() != 2 { // ABD ∩ ACD = AD
		t.Fatalf("intWidth = %d", s.IntersectionWidth())
	}
	if s.Attrs() != bitset.Full(6) {
		t.Fatal("Attrs")
	}
}

func TestIsAcyclic(t *testing.T) {
	if !paperSchema(t).IsAcyclic() {
		t.Fatal("paper schema is acyclic")
	}
	// The triangle {AB, BC, CA} is the canonical cyclic schema.
	tri := MustNew(at(t, "AB"), at(t, "BC"), at(t, "AC"))
	if tri.IsAcyclic() {
		t.Fatal("triangle should be cyclic")
	}
	// A single relation is acyclic.
	if !MustNew(at(t, "ABC")).IsAcyclic() {
		t.Fatal("single relation is acyclic")
	}
	// A path {AB, BC, CD} is acyclic.
	if !MustNew(at(t, "AB"), at(t, "BC"), at(t, "CD")).IsAcyclic() {
		t.Fatal("path is acyclic")
	}
	// 4-cycle {AB, BC, CD, DA} is cyclic.
	if MustNew(at(t, "AB"), at(t, "BC"), at(t, "CD"), at(t, "AD")).IsAcyclic() {
		t.Fatal("4-cycle should be cyclic")
	}
}

func TestBuildJoinTreePaper(t *testing.T) {
	s := paperSchema(t)
	tree, err := BuildJoinTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != 3 {
		t.Fatalf("edges = %d", len(tree.Edges))
	}
	if err := tree.VerifyRunningIntersection(); err != nil {
		t.Fatal(err)
	}
	// The schema admits two join trees (AF may hang off ABD or ACD with
	// the same edge weight), so we do not pin the paper's exact support
	// (Example 3.2); we assert structure: three support MVDs whose keys
	// are the separators A, AD, BD and whose dependents partition the
	// remaining attributes.
	got := tree.Support()
	if len(got) != 3 {
		t.Fatalf("support size = %d: %v", len(got), got)
	}
	keys := map[bitset.AttrSet]bool{}
	for _, m := range got {
		keys[m.Key] = true
		if m.Attrs() != bitset.Full(6) {
			t.Fatalf("support MVD %v does not cover Ω", m)
		}
	}
	for _, want := range []string{"A", "AD", "BD"} {
		if !keys[at(t, want)] {
			t.Fatalf("missing support key %s; got %v", want, got)
		}
	}
}

func TestBuildJoinTreeRejectsCyclic(t *testing.T) {
	tri := MustNew(at(t, "AB"), at(t, "BC"), at(t, "AC"))
	if _, err := BuildJoinTree(tri); err == nil {
		t.Fatal("join tree built for cyclic schema")
	}
}

func TestBuildJoinTreeSingleBag(t *testing.T) {
	s := MustNew(at(t, "ABC"))
	tree, err := BuildJoinTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != 0 || len(tree.Bags) != 1 {
		t.Fatal("single-bag tree wrong")
	}
	if len(tree.Support()) != 0 {
		t.Fatal("single bag has empty support")
	}
}

func TestSubtreeAttrs(t *testing.T) {
	tree, err := BuildJoinTree(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tree.Edges {
		left, right := tree.SubtreeAttrs(e[0], e[1])
		if left.Union(right) != tree.Attrs() {
			t.Fatal("subtrees must cover the universe")
		}
		sep := tree.Bags[e[0]].Intersect(tree.Bags[e[1]])
		if !left.Intersect(right).SubsetOf(sep) {
			// Running intersection: shared attributes live on the edge path.
			t.Fatalf("subtree overlap %v beyond separator %v", left.Intersect(right), sep)
		}
	}
}

func TestDepthFirstOrder(t *testing.T) {
	tree, err := BuildJoinTree(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	order, parents := tree.DepthFirstOrder()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if parents[order[0]] != -1 {
		t.Fatal("root should have no parent")
	}
	seen := map[int]bool{order[0]: true}
	for _, u := range order[1:] {
		if !seen[parents[u]] {
			t.Fatalf("node %d visited before its parent", u)
		}
		seen[u] = true
	}
}

func TestSchemaEqualAndFingerprint(t *testing.T) {
	a := MustNew(at(t, "AB"), at(t, "BC"))
	b := MustNew(at(t, "BC"), at(t, "AB"))
	if !a.Equal(b) || a.String() != b.String() {
		t.Fatal("order must not matter")
	}
	c := MustNew(at(t, "AB"), at(t, "BD"))
	if a.Equal(c) || a.String() == c.String() {
		t.Fatal("different schemas compared equal")
	}
}

func TestCells(t *testing.T) {
	s := MustNew(at(t, "AB"), at(t, "BC"))
	got := s.Cells(func(r bitset.AttrSet) int { return 10 })
	if got != 40 { // 10 rows × 2 cols each
		t.Fatalf("Cells = %d", got)
	}
}

// randomAcyclicBags builds bags that satisfy the running intersection
// property by construction: every non-root bag inherits a non-empty subset
// of its parent's attributes and adds fresh ones, so each attribute's
// holders form a connected subtree.
func randomAcyclicBags(rng *rand.Rand) []bitset.AttrSet {
	next := 0
	fresh := func(k int) bitset.AttrSet {
		var s bitset.AttrSet
		for i := 0; i < k && next < 60; i++ {
			s = s.Add(next)
			next++
		}
		return s
	}
	m := 2 + rng.Intn(5)
	bags := []bitset.AttrSet{fresh(1 + rng.Intn(4))}
	for i := 1; i < m; i++ {
		parent := bags[rng.Intn(len(bags))]
		// Non-empty random subset of the parent.
		var sep bitset.AttrSet
		parent.ForEach(func(a int) bool {
			if rng.Intn(2) == 0 {
				sep = sep.Add(a)
			}
			return true
		})
		if sep.IsEmpty() {
			sep = bitset.Single(parent.Min())
		}
		bags = append(bags, sep.Union(fresh(1+rng.Intn(3))))
	}
	return bags
}

// Property: schemas from random RIP-by-construction bags are acyclic, and
// the built join tree verifies the running intersection property.
func TestQuickRandomAcyclicSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		bags := randomAcyclicBags(rng)
		s, err := New(bags)
		if err != nil {
			continue
		}
		if !s.IsAcyclic() {
			t.Fatalf("trial %d: schema %v should be acyclic", trial, s)
		}
		tree, err := BuildJoinTree(s)
		if err != nil {
			t.Fatalf("trial %d: join tree failed for %v: %v", trial, s, err)
		}
		if err := tree.VerifyRunningIntersection(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every support MVD key must be an intersection of two bags.
		for _, m := range tree.Support() {
			found := false
			for _, e := range tree.Edges {
				if tree.Bags[e[0]].Intersect(tree.Bags[e[1]]) == m.Key {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("support key %v is not an edge label", m.Key)
			}
		}
	}
}
