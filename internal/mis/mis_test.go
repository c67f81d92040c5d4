package mis

import (
	"math/rand"
	"sort"
	"testing"
)

func collectBK(g *Graph) [][]int {
	var out [][]int
	g.EnumerateBK(func(set []int) bool {
		out = append(out, set)
		return true
	})
	return out
}

func canon(sets [][]int) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		b := make([]byte, 0, 2*len(s))
		for _, v := range s {
			b = append(b, byte(v), ',')
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

func TestEmptyGraphSingleMIS(t *testing.T) {
	g := NewGraph(4)
	sets := collectBK(g)
	if len(sets) != 1 || len(sets[0]) != 4 {
		t.Fatalf("edgeless graph: %v", sets)
	}
}

func TestTriangle(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	sets := collectBK(g)
	if len(sets) != 3 {
		t.Fatalf("triangle MIS count = %d", len(sets))
	}
	for _, s := range sets {
		if len(s) != 1 {
			t.Fatalf("triangle MIS %v", s)
		}
	}
}

func TestPath4(t *testing.T) {
	// Path 0-1-2-3: MIS are {0,2}, {0,3}, {1,3}.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	sets := collectBK(g)
	if len(sets) != 3 {
		t.Fatalf("path MIS = %v", sets)
	}
	for _, s := range sets {
		if !g.IsMaximalIndependent(s) {
			t.Fatalf("%v not maximal independent", s)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	count := 0
	g.EnumerateBK(func(set []int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 0)
	if g.HasEdge(0, 0) {
		t.Fatal("self loop stored")
	}
	sets := collectBK(g)
	if len(sets) != 1 || len(sets[0]) != 2 {
		t.Fatalf("got %v", sets)
	}
}

func TestDegreeAndHasEdge(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Fatal("degree wrong")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing")
	}
}

func TestLargeVertexCount(t *testing.T) {
	// More than 64 vertices exercises the multi-word bitset.
	const n = 150
	g := NewGraph(n)
	// Perfect matching: vertex 2i -- 2i+1. MIS count = 2^(n/2), too many;
	// instead build a star: 0 connected to all others.
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	sets := collectBK(g)
	if len(sets) != 2 {
		t.Fatalf("star MIS count = %d, want 2", len(sets))
	}
	sizes := map[int]bool{}
	for _, s := range sets {
		sizes[len(s)] = true
	}
	if !sizes[1] || !sizes[n-1] {
		t.Fatal("star MIS should be {center} and all leaves")
	}
}

// naiveMIS enumerates maximal independent sets by brute force (n <= ~16).
func naiveMIS(g *Graph) [][]int {
	n := g.N()
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if g.IsMaximalIndependent(set) {
			out = append(out, set)
		}
	}
	return out
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestFillUpperMatchesAddEdge builds random graphs twice — edge by edge
// with AddEdge, and by FillUpper from their upper triangles at several
// worker counts — around the 64-vertex word and block boundaries, and
// requires identical adjacency rows and the reference edge count.
func TestFillUpperMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{0, 1, 63, 64, 65, 129, 300} {
		for _, p := range []float64{0.05, 0.5, 0.95} {
			ref := randomGraph(rng, n, p)
			want := int64(0)
			for v := 0; v < n; v++ {
				want += int64(ref.Degree(v))
			}
			want /= 2
			for _, workers := range []int{1, 2, 8} {
				g := NewGraph(n)
				edges, ok := g.FillUpper(workers, func() func(int, []uint64) bool {
					return func(i int, row []uint64) bool {
						for j := i + 1; j < n; j++ {
							if ref.HasEdge(i, j) {
								row[j/64] |= 1 << uint(j%64)
							}
						}
						return true
					}
				})
				if !ok || edges != want {
					t.Fatalf("n=%d p=%v workers=%d: FillUpper = (%d, %v), want (%d, true)", n, p, workers, edges, ok, want)
				}
				for v := 0; v < n; v++ {
					for w := range g.adj[v] {
						if g.adj[v][w] != ref.adj[v][w] {
							t.Fatalf("n=%d p=%v workers=%d: row %d word %d = %#x, want %#x",
								n, p, workers, v, w, g.adj[v][w], ref.adj[v][w])
						}
					}
				}
			}
		}
	}
}

// TestFillUpperAbandon stops a fill from inside a row: the build reports
// ok = false and no edge count.
func TestFillUpperAbandon(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGraph(200)
		edges, ok := g.FillUpper(workers, func() func(int, []uint64) bool {
			return func(i int, row []uint64) bool { return i < 10 }
		})
		if ok || edges != 0 {
			t.Fatalf("workers=%d: abandoned fill = (%d, %v), want (0, false)", workers, edges, ok)
		}
	}
}

func TestQuickBKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		g := randomGraph(rng, n, rng.Float64())
		got := canon(collectBK(g))
		want := canon(naiveMIS(g))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d sets, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d mismatch", trial)
			}
		}
	}
}

func TestEnumerateOnEmptyVertexSet(t *testing.T) {
	// The empty graph has exactly one maximal independent set: ∅.
	g := NewGraph(0)
	if sets := collectBK(g); len(sets) != 1 || len(sets[0]) != 0 {
		t.Fatalf("got %v", sets)
	}
}
