package transversal

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

func TestEmptyHypergraph(t *testing.T) {
	e := New(bitset.Full(4))
	d, ok := e.Next()
	if !ok || !d.IsEmpty() {
		t.Fatalf("empty hypergraph: got %v, %v", d, ok)
	}
	if _, ok := e.Next(); ok {
		t.Fatal("only one transversal expected")
	}
}

func TestSingleEdge(t *testing.T) {
	e := New(bitset.Full(5))
	e.AddEdge(bitset.Of(1, 3))
	got := map[bitset.AttrSet]bool{}
	for {
		d, ok := e.Next()
		if !ok {
			break
		}
		got[d] = true
	}
	if len(got) != 2 || !got[bitset.Of(1)] || !got[bitset.Of(3)] {
		t.Fatalf("transversals of {13}: %v", got)
	}
}

func TestTwoDisjointEdges(t *testing.T) {
	e := New(bitset.Full(6))
	e.AddEdge(bitset.Of(0, 1))
	e.AddEdge(bitset.Of(2, 3))
	mts := e.Transversals()
	if len(mts) != 4 {
		t.Fatalf("expected 4 minimal transversals, got %v", mts)
	}
	for _, m := range mts {
		if m.Len() != 2 {
			t.Fatalf("transversal %v should have 2 vertices", m)
		}
	}
}

func TestOverlappingEdges(t *testing.T) {
	// Edges {0,1}, {1,2}: minimal transversals are {1}, {0,2}.
	e := New(bitset.Full(3))
	e.AddEdge(bitset.Of(0, 1))
	e.AddEdge(bitset.Of(1, 2))
	mts := e.Transversals()
	want := map[bitset.AttrSet]bool{bitset.Of(1): true, bitset.Of(0, 2): true}
	if len(mts) != 2 {
		t.Fatalf("got %v", mts)
	}
	for _, m := range mts {
		if !want[m] {
			t.Fatalf("unexpected transversal %v", m)
		}
	}
}

func TestEmptyEdgeKillsEnumeration(t *testing.T) {
	e := New(bitset.Full(3))
	e.AddEdge(bitset.Of(0))
	e.AddEdge(bitset.Empty())
	if len(e.Transversals()) != 0 {
		t.Fatal("empty edge should leave no transversals")
	}
	if _, ok := e.Next(); ok {
		t.Fatal("Next should fail after empty edge")
	}
	e.AddEdge(bitset.Of(1)) // must not resurrect
	if len(e.Transversals()) != 0 {
		t.Fatal("dead enumerator resurrected")
	}
	e.Reset(bitset.Full(3)) // Reset does: it is New again
	if d, ok := e.Next(); !ok || !d.IsEmpty() || len(e.Edges()) != 0 {
		t.Fatalf("after Reset: Next = %v, %v with edges %v", d, ok, e.Edges())
	}
	e.AddEdge(bitset.Of(1, 2))
	if got := e.Transversals(); !slices.Equal(got, []bitset.AttrSet{bitset.Of(1), bitset.Of(2)}) {
		t.Fatalf("after Reset and edge {1,2}: %v", got)
	}
}

func TestEdgeClippedToUniverse(t *testing.T) {
	e := New(bitset.Of(0, 1))
	e.AddEdge(bitset.Of(1, 5)) // 5 outside universe
	mts := e.Transversals()
	if len(mts) != 1 || mts[0] != bitset.Of(1) {
		t.Fatalf("got %v", mts)
	}
}

func TestNextNeverRepeats(t *testing.T) {
	e := New(bitset.Full(6))
	e.AddEdge(bitset.Of(0, 1, 2))
	seen := map[bitset.AttrSet]bool{}
	for {
		d, ok := e.Next()
		if !ok {
			break
		}
		if seen[d] {
			t.Fatalf("repeat %v", d)
		}
		seen[d] = true
		// Interleave edge additions like MineMinSeps does.
		if len(seen) == 1 {
			e.AddEdge(bitset.Of(3, 4))
		}
	}
	// All processed transversals must be minimal for the final family.
	for d := range seen {
		// d was minimal for the family at the time it was produced; at
		// least verify it hits the first edge.
		if !d.Intersects(bitset.Of(0, 1, 2)) {
			t.Fatalf("%v misses the first edge", d)
		}
	}
}

func TestMinimalHelper(t *testing.T) {
	edges := []bitset.AttrSet{bitset.Of(0, 1), bitset.Of(1, 2)}
	if !Minimal(bitset.Of(1), edges) {
		t.Fatal("{1} is a minimal transversal")
	}
	if Minimal(bitset.Of(0, 1), edges) {
		t.Fatal("{0,1} is not minimal ({1} suffices)")
	}
	if Minimal(bitset.Of(0), edges) {
		t.Fatal("{0} is not a transversal")
	}
}

// naiveMinTransversals enumerates minimal transversals by brute force.
func naiveMinTransversals(universe bitset.AttrSet, edges []bitset.AttrSet) []bitset.AttrSet {
	var all []bitset.AttrSet
	universe.Subsets(func(s bitset.AttrSet) bool {
		hits := true
		for _, e := range edges {
			if !e.Intersects(s) {
				hits = false
				break
			}
		}
		if hits {
			all = append(all, s)
		}
		return true
	})
	var out []bitset.AttrSet
	for _, s := range all {
		minimal := true
		for _, o := range all {
			if o.ProperSubsetOf(s) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	bitset.SortSets(out)
	return out
}

// resortEnumerator is the Berge step as it was before AddEdge merged: the
// survivors and the extensions are appended in one list, which is then
// sorted whole. It is the reference for the order Transversals and Next
// hand out.
type resortEnumerator struct {
	universe bitset.AttrSet
	edges    []bitset.AttrSet
	mts      []entry
	head     int
	dead     bool
}

func newResort(universe bitset.AttrSet) *resortEnumerator {
	return &resortEnumerator{universe: universe, mts: []entry{{set: bitset.Empty()}}}
}

func (e *resortEnumerator) AddEdge(edge bitset.AttrSet) {
	edge = edge.Intersect(e.universe)
	e.edges = append(e.edges, edge)
	if edge.IsEmpty() {
		e.dead = true
		e.mts = nil
		return
	}
	if e.dead {
		return
	}
	var next []entry
	for _, t := range e.mts {
		if t.set.Intersects(edge) {
			next = append(next, t)
			continue
		}
		for rest := edge; rest != 0; rest &= rest - 1 {
			if s := t.set | rest&-rest; Minimal(s, e.edges) {
				next = append(next, entry{set: s})
			}
		}
	}
	slices.SortFunc(next, func(a, b entry) int { return bitset.Compare(a.set, b.set) })
	e.mts, e.head = next, 0
}

func (e *resortEnumerator) Next() (bitset.AttrSet, bool) {
	for ; e.head < len(e.mts); e.head++ {
		if c := &e.mts[e.head]; !c.done {
			c.done = true
			return c.set, true
		}
	}
	return bitset.Empty(), false
}

func (e *resortEnumerator) Transversals() []bitset.AttrSet {
	out := make([]bitset.AttrSet, len(e.mts))
	for i, t := range e.mts {
		out[i] = t.set
	}
	return out
}

// TestQuickAgainstBruteForce drives one enumerator — Reset between trials,
// so its buffers carry over — beside the re-sorting reference, edges and
// Next calls interleaved at random: after every AddEdge the transversal
// lists are equal, every Next returns the same set, and at the end the
// list is the brute-force family of minimal hitting sets.
func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := New(bitset.Empty())
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(4)
		universe := bitset.Full(n)
		numEdges := 1 + rng.Intn(4)
		e.Reset(universe)
		ref := newResort(universe)
		var edges []bitset.AttrSet
		for k := 0; k < numEdges; k++ {
			var edge bitset.AttrSet
			for edge.IsEmpty() {
				edge = bitset.AttrSet(rng.Int63()) & universe
				if rng.Intn(2) == 0 {
					edge &= bitset.AttrSet(rng.Int63())
				}
			}
			edges = append(edges, edge)
			e.AddEdge(edge)
			ref.AddEdge(edge)
			if got, want := e.Transversals(), ref.Transversals(); !slices.Equal(got, want) {
				t.Fatalf("trial %d (%v): transversals %v, re-sorted %v", trial, edges, got, want)
			}
			for draws := rng.Intn(3); draws > 0; draws-- {
				d, ok := e.Next()
				rd, rok := ref.Next()
				if d != rd || ok != rok {
					t.Fatalf("trial %d (%v): Next = %v, %v; re-sorted %v, %v", trial, edges, d, ok, rd, rok)
				}
			}
		}
		got := append([]bitset.AttrSet(nil), e.Transversals()...)
		bitset.SortSets(got)
		want := naiveMinTransversals(universe, edges)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v): got %v, want %v", trial, edges, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%v): got %v, want %v", trial, edges, got, want)
			}
		}
	}
}

// FuzzEnumerator drives the enumerator the way MineMinSeps does — edges
// arriving one at a time, Next interleaved — from fuzzer-chosen bytes:
// the first byte picks the universe size (≤ 12), then each pair of bytes
// is one edge (possibly empty, possibly a repeat or a superset of an
// earlier one) and each bit of the byte after it says how many
// transversals to draw before the next edge. After every AddEdge the
// transversal set must equal the brute-force minimal hitting sets, in
// canonical order and duplicate-free, and the re-sorting reference's list;
// every set Next returns must be the one the reference returns and a
// minimal transversal of the hypergraph at that moment; and Next must
// never return the same set twice.
func FuzzEnumerator(f *testing.F) {
	f.Add([]byte{6, 0x07, 0x00, 1, 0x18, 0x00, 3})
	f.Add([]byte{12, 0xff, 0x0f, 0, 0x01, 0x00, 2, 0x03, 0x00, 9})
	f.Add([]byte{4, 0x03, 0x00, 1, 0x00, 0x00, 1, 0x01, 0x00, 0}) // empty edge mid-stream
	f.Add([]byte{8, 0x11, 0x00, 2, 0x11, 0x00, 2, 0x33, 0x00, 2}) // repeat, then superset
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		universe := bitset.Full(n)
		e := New(universe)
		ref := newResort(universe)
		var edges []bitset.AttrSet
		returned := map[bitset.AttrSet]bool{}
		draw := func(k int) {
			for ; k > 0; k-- {
				d, ok := e.Next()
				if rd, rok := ref.Next(); d != rd || ok != rok {
					t.Fatalf("Next = %v, %v; re-sorted reference %v, %v (edges %v)", d, ok, rd, rok, edges)
				}
				if !ok {
					return
				}
				if returned[d] {
					t.Fatalf("Next repeated %v (edges %v)", d, edges)
				}
				returned[d] = true
				if !Minimal(d, edges) {
					t.Fatalf("Next returned %v, not a minimal transversal of %v", d, edges)
				}
			}
		}
		for rest := data[1:]; len(rest) >= 3 && len(edges) < 10; rest = rest[3:] {
			edge := bitset.AttrSet(rest[0]) | bitset.AttrSet(rest[1])<<8
			e.AddEdge(edge) // vertices ≥ n are outside the universe: clipped
			ref.AddEdge(edge)
			edges = append(edges, edge&universe)
			got, want := e.Transversals(), naiveMinTransversals(universe, edges)
			if !slices.Equal(got, want) {
				t.Fatalf("after edges %v: transversals %v, want %v", edges, got, want)
			}
			if resorted := ref.Transversals(); !slices.Equal(got, resorted) {
				t.Fatalf("after edges %v: transversals %v, re-sorted reference %v", edges, got, resorted)
			}
			draw(int(rest[2]) % 8)
		}
		draw(1 << 12) // drain: whatever is left comes out once each
		for _, want := range naiveMinTransversals(universe, edges) {
			if !returned[want] {
				t.Fatalf("drained enumerator never returned %v (edges %v)", want, edges)
			}
		}
	})
}
