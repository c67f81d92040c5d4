package pli

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// classID reads row's class id out of whichever width the map was laid
// out at.
func classID(cl *Classes, row int) int {
	switch {
	case cl.ids.w1 != nil:
		return int(cl.ids.w1[row])
	case cl.ids.w2 != nil:
		return int(cl.ids.w2[row])
	}
	return int(cl.ids.w4[row])
}

// classShapes draws the relations TestClassRepsAndIDs groups: 4 columns of
// small random domains; one column nearly a key, so the probed operand of
// a count pass strips rows the iterated one clusters; a key column, so
// every row is its own class; and one class, every row equal.
func classShapes(rng *rand.Rand) map[string]*relation.Relation {
	rows := 1 + rng.Intn(80)
	column := func(domain int) []relation.Code {
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(rng.Intn(domain))
		}
		return col
	}
	key := make([]relation.Code, rows)
	for i := range key {
		key[i] = relation.Code(i)
	}
	names := []string{"A", "B", "C", "D"}
	build := func(cols ...[]relation.Code) *relation.Relation {
		r, err := relation.FromCodes(names, cols)
		if err != nil {
			panic(err)
		}
		return r
	}
	return map[string]*relation.Relation{
		"random":       randomRelation(rng, rows, 4, 2+rng.Intn(5)),
		"nearly a key": build(column(2), column(rows/2+1), column(3), column(2)),
		"all distinct": build(column(3), column(2), key, column(2)),
		"one class":    build(column(1), column(1), column(1), column(1)),
	}
}

// TestClassRepsAndIDs checks Cache.Classes against row keys and FromAttrs
// on every path it takes: a resident partition (Get first), a single
// attribute (pinned), and a count pass over the two operands of a set
// that was never built — chain leaves and block-internal sets alike, with
// rows the probed operand strips. The representatives are exactly the
// first occurrences, in row order (what a grouping projection keeps);
// two rows share an id iff they agree on the set, and Reps[k] opens class
// k; N is FromAttrs' NumClasses; and the call leaves Entries and
// BytesLive where they were.
func TestClassRepsAndIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := []bitset.AttrSet{bitset.Single(0), bitset.Single(3), bitset.Of(0, 1), bitset.Of(0, 2), bitset.Of(1, 2, 3), bitset.Full(4)}
	paths := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		for shape, r := range classShapes(rng) {
			for _, attrs := range sets {
				for _, resident := range []bool{true, false} {
					// Blocks {0,1} and {2,3}: {0,2}, {1,2,3} and Ω are chain leaves.
					c := NewCache(r, Config{BlockSize: 2})
					path := "single attribute"
					switch {
					case attrs.Len() == 1:
					case resident:
						c.Get(attrs)
						path = "resident"
					default:
						left, right := c.split(attrs)
						p, q := iterateSmaller(c.Get(left), c.Get(right))
						path = "counted"
						if strippedByProbe(p, q) {
							path = "counted, probed side strips rows"
						}
					}
					paths[path]++
					before := c.Stats()
					cl := c.Classes(NewArena(), attrs, ClassReps|ClassIDs)
					if after := c.Stats(); after.Entries != before.Entries || after.BytesLive != before.BytesLive {
						t.Fatalf("%s %v (%s): Entries %d → %d, BytesLive %d → %d", shape, attrs, path,
							before.Entries, after.Entries, before.BytesLive, after.BytesLive)
					}
					checkClasses(t, r, attrs, &cl, shape+" "+path)
				}
			}
		}
	}
	for _, path := range []string{"single attribute", "resident", "counted", "counted, probed side strips rows"} {
		if paths[path] == 0 {
			t.Errorf("path %q never taken", path)
		}
	}
}

// strippedByProbe reports whether a row of one of p's clusters is a
// stripped singleton of q.
func strippedByProbe(p, q *Partition) bool {
	clustered := make([]bool, q.n)
	for _, tid := range q.rows {
		clustered[tid] = true
	}
	for _, tid := range p.rows {
		if !clustered[tid] {
			return true
		}
	}
	return false
}

func checkClasses(t *testing.T, r *relation.Relation, attrs bitset.AttrSet, cl *Classes, label string) {
	t.Helper()
	var wantReps []int32
	classOf := map[string]int{}
	for i := 0; i < r.NumRows(); i++ {
		k := r.RowKey(i, attrs)
		id, seen := classOf[k]
		if !seen {
			id = len(wantReps)
			classOf[k] = id
			wantReps = append(wantReps, int32(i))
		}
		if got := classID(cl, i); got != id {
			t.Fatalf("%s %v: row %d has class %d, want %d (the %d-th first occurrence)", label, attrs, i, got, id, id)
		}
	}
	if len(cl.Reps) != len(wantReps) {
		t.Fatalf("%s %v: %d reps, want %d", label, attrs, len(cl.Reps), len(wantReps))
	}
	for i, rep := range cl.Reps {
		if rep != wantReps[i] {
			t.Fatalf("%s %v: reps %v, want %v", label, attrs, cl.Reps, wantReps)
		}
	}
	if want := FromAttrs(r, attrs).NumClasses(); cl.N != want || cl.N != len(wantReps) {
		t.Fatalf("%s %v: N = %d, want %d", label, attrs, cl.N, want)
	}
}

// TestClassesCountedLikeALeaf: a set that is not resident costs one
// intersection, counted as an entropy-only miss, and is not published —
// a second request counts again; a resident one is a hit and no
// intersection.
func TestClassesCountedLikeALeaf(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(5)), 300, 4, 4)
	c := NewCache(r, Config{BlockSize: 2})
	leaf := bitset.Of(1, 2, 3)
	c.Entropy(leaf) // builds the operands
	for round := 1; round <= 2; round++ {
		before := c.Stats()
		cl := c.Classes(NewArena(), leaf, 0)
		st := c.Stats()
		if cl.N != FromAttrs(r, leaf).NumClasses() || cl.Reps != nil {
			t.Fatalf("round %d: N = %d, reps %v", round, cl.N, cl.Reps)
		}
		if st.Intersects-before.Intersects != 1 || st.EntropyOnly-before.EntropyOnly != 1 ||
			st.Misses-before.Misses != 1 || st.Entries != before.Entries {
			t.Fatalf("round %d: stats %+v → %+v, want one entropy-only miss and nothing published", round, before, st)
		}
	}
	inBlock := bitset.Of(2, 3)
	c.Get(inBlock)
	before := c.Stats()
	c.Classes(NewArena(), inBlock, ClassIDs)
	if st := c.Stats(); st.Hits-before.Hits != 1 || st.Intersects != before.Intersects {
		t.Fatalf("resident set: stats %+v → %+v, want one hit and no intersection", before, st)
	}
}

// TestClassIDWidths: the id map is laid out at the narrowest width that
// holds N−1, across the 1- and 2-byte boundaries.
func TestClassIDWidths(t *testing.T) {
	for _, tc := range []struct{ classes, width int }{{1, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 4}} {
		col := make([]relation.Code, tc.classes+3)
		for i := range col {
			col[i] = relation.Code(i % tc.classes)
		}
		r, err := relation.FromCodes([]string{"A"}, [][]relation.Code{col})
		if err != nil {
			t.Fatal(err)
		}
		cl := NewCache(r, DefaultConfig()).Classes(NewArena(), bitset.Single(0), ClassIDs)
		width := 4
		switch {
		case cl.ids.w1 != nil:
			width = 1
		case cl.ids.w2 != nil:
			width = 2
		}
		if cl.N != tc.classes || width != tc.width {
			t.Fatalf("%d classes: N = %d at %d bytes, want %d bytes", tc.classes, cl.N, width, tc.width)
		}
		if got := classID(&cl, len(col)-1); got != (len(col)-1)%tc.classes {
			t.Fatalf("%d classes: last row in class %d", tc.classes, got)
		}
	}
}
