package maimon_test

import (
	"context"
	"fmt"

	maimon "repro"
)

// Session-first usage: open one session over the relation and mine it at
// two thresholds — the second mine is answered largely from the entropy
// memo the first one filled (the paper's "most expensive operation",
// paid once).
func ExampleSession() {
	r, _ := maimon.FromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		})
	s, _ := maimon.Open(r)
	ctx := context.Background()

	exact, _, _ := s.MineSchemes(ctx, maimon.WithEpsilon(0), maimon.WithMaxSchemes(3))
	for _, sc := range exact {
		fmt.Printf("%s J=%.1f\n", sc.Schema.Format(r.Names()), sc.J)
	}

	// Re-mine the same session at a looser threshold: warm oracle, only
	// the entropy sets new to this search are computed.
	loose, _, _ := s.MineSchemes(ctx, maimon.WithEpsilon(0.5), maimon.WithMaxSchemes(3))
	fmt.Printf("ε=0.5 mines %d schemes\n", len(loose))
	fmt.Printf("memo reused: %v\n", s.Stats().HCached > 0)
	// Output:
	// {[B,E], [D,E], [A,F], [A,C,E]} J=0.0
	// {[A,F], [A,B,D], [A,C,D], [A,D,E]} J=0.0
	// {[A,F], [B,D,E], [A,B,C,D]} J=0.0
	// ε=0.5 mines 3 schemes
	// memo reused: true
}

// The running example of the paper (Fig. 1): the 4-tuple relation
// decomposes exactly; J certifies it.
func ExampleSession_JOfSchema() {
	r, _ := maimon.FromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		})
	bags := make([]maimon.AttrSet, 0, 4)
	for _, spec := range []string{"ABD", "ACD", "BDE", "AF"} {
		s, _ := r.ParseAttrs(spec)
		bags = append(bags, s)
	}
	schema, _ := maimon.NewSchema(bags)
	s, _ := maimon.Open(r)
	j, _ := s.JOfSchema(schema)
	fmt.Printf("J = %.1f\n", j)
	// Output: J = 0.0
}

// J of a single MVD: A ↠ F|BCDE holds exactly on the running example.
func ExampleSession_J() {
	r, _ := maimon.FromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		})
	s, _ := maimon.Open(r)
	phi, _ := maimon.ParseMVD("A->F|BCDE")
	fmt.Printf("J(A↠F|BCDE) = %.1f\n", s.J(phi))
	// Output: J(A↠F|BCDE) = 0.0
}

// Mining the Sec. 5.2 counter-example relation at ε = 1: all three
// pairwise merges hold, so X separates every pair.
func ExampleSession_MineMVDs() {
	r, _ := maimon.FromRows(
		[]string{"X", "A", "B", "C"},
		[][]string{
			{"0", "0", "0", "0"},
			{"0", "1", "1", "1"},
		})
	s, _ := maimon.Open(r)
	res, err := s.MineMVDs(context.Background(), maimon.WithEpsilon(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d full 1-MVDs mined\n", len(res.MVDs))
	for _, m := range res.MVDs {
		fmt.Println(m.Format(r.Names()))
	}
	// Output:
	// 3 full 1-MVDs mined
	// ∅ ->> X | A | B,C
	// ∅ ->> X | B | A,C
	// ∅ ->> X | C | A,B
}
