package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

// Same seed ⇒ byte-identical CSV; another seed ⇒ another relation.
func TestInputsFollowTheSeed(t *testing.T) {
	csvOf := func(name string, seed int64) []byte {
		t.Helper()
		rel, err := generate(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		path, err := writeCSV(rel, t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, name := range []string{"wide", "mid"} {
		a, b, c := csvOf(name, 7), csvOf(name, 7), csvOf(name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different CSVs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same CSV", name)
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestEpsilonsFollowTheSeed(t *testing.T) {
	a, b, c := epsilons(7), epsilons(7), epsilons(8)
	if len(a) != roundJobs {
		t.Fatalf("%d ε, want %d", len(a), roundJobs)
	}
	seen := map[float64]bool{}
	same := true
	for i, x := range a {
		if x != b[i] {
			t.Fatalf("seed 7 gave two different ε lists at %d", i)
		}
		same = same && x == c[i]
		if x < 0 || x >= 0.1 || seen[x] {
			t.Errorf("ε[%d]=%g out of [0,0.1) or repeated", i, x)
		}
		seen[x] = true
	}
	if same {
		t.Error("seeds 7 and 8 gave the same ε list")
	}
}

func TestSchemeLine(t *testing.T) {
	for _, c := range []struct {
		line    string
		ordinal int
		ok      bool
	}{
		{"scheme   1: {[D,E,F,G], [J,K,L,M]} J=0.407", 1, true},
		{"scheme 100: {[A,B]} J=0.000", 100, true},
		{"[schemes] 1 schemes from 2137 MVDs (170024 candidates evaluated)", 0, false},
		{"[mvds] pair 78/78: 9086 separators, 2137 MVDs (170024 candidates evaluated)", 0, false},
		{"schemes are not scheme lines", 0, false},
		{"scheme without a number", 0, false},
		{"", 0, false},
	} {
		if n, ok := schemeLine(c.line); n != c.ordinal || ok != c.ok {
			t.Errorf("schemeLine(%q) = %d, %v; want %d, %v", c.line, n, ok, c.ordinal, c.ok)
		}
	}
}

const schemesStdout = `relation: 3240 rows × 13 columns (wide.csv)
J        S[%]     E[%]      m   width   schema
0.395    26.8     748.42    2   3       {[B,C], [A,B]}
0.392    26.7     748.52    2   3       {[A,C], [A,B]}
2 schemes from 17 full MVDs (ε=0.100)
`

const mvdsStdout = `relation: 9 rows × 3 columns (x.csv)
  B ->> C | A                              J=0.0894
  A ->> B | C                              J=0.0666
2 full ε-MVDs (ε=0.100)
`

func TestParseCLIOutput(t *testing.T) {
	got, err := parseCLIOutput(wire.ModeSchemes, []byte(schemesStdout))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMVDs != 17 || got.MVDs != nil || len(got.Schemes) != 2 || got.Schemes[0] != "{[A,C], [A,B]}" {
		t.Errorf("schemes outcome = %+v", got)
	}
	got, err = parseCLIOutput(wire.ModeMVDs, []byte(mvdsStdout))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMVDs != 2 || len(got.MVDs) != 2 || got.MVDs[0] != "A ->> B | C" || got.Schemes != nil {
		t.Errorf("mvds outcome = %+v", got)
	}
	// A run cut short has no summary line; a table that disagrees with
	// its summary is not a result either.
	if _, err := parseCLIOutput(wire.ModeSchemes, []byte(schemesStdout[:120])); err == nil {
		t.Error("truncated output accepted")
	}
	if _, err := parseCLIOutput(wire.ModeMVDs, []byte("  A ->> B | C   J=0.1\n2 full ε-MVDs (ε=0.1)\n")); err == nil {
		t.Error("MVD count mismatch accepted")
	}
}

func TestCheckAgainst(t *testing.T) {
	ref := outcome{NumMVDs: 2, MVDs: []string{"A ->> B | C", "B ->> C | A"}, Schemes: []string{"{[A,B], [A,C]}"}}
	// The CLI's schemes mode lists no MVDs: compared on count and schemes.
	if err := checkAgainst(ref, outcome{NumMVDs: 2, Schemes: []string{"{[A,B], [A,C]}"}}); err != nil {
		t.Errorf("count-only surface rejected: %v", err)
	}
	if err := checkAgainst(ref, outcome{NumMVDs: 3, Schemes: []string{"{[A,B], [A,C]}"}}); err == nil {
		t.Error("wrong MVD count accepted")
	}
	if err := checkAgainst(ref, outcome{NumMVDs: 2, MVDs: []string{"A ->> B | C", "C ->> A | B"}, Schemes: ref.Schemes}); err == nil {
		t.Error("wrong MVD set accepted")
	}
	if err := checkAgainst(ref, outcome{NumMVDs: 2, MVDs: ref.MVDs, Schemes: []string{}}); err == nil {
		t.Error("missing scheme accepted")
	}
	res := &wire.JobResult{Mode: wire.ModeSchemes,
		MVDs:    []wire.MVDItem{{MVD: "B ->> C | A"}, {MVD: "A ->> B | C"}},
		Schemes: []wire.SchemeResult{{Schema: "{[A,B], [A,C]}"}}}
	if err := checkAgainst(ref, outcomeOfResult(res)); err != nil {
		t.Errorf("job result in another order rejected: %v", err)
	}
}

// Self time is a span minus what its children cover, overlap counted once.
func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Parent: 0, StartNS: ms(0), EndNS: ms(100)},
		{ID: 2, Parent: 1, StartNS: ms(10), EndNS: ms(40)},
		{ID: 3, Parent: 1, StartNS: ms(30), EndNS: ms(60)}, // overlaps span 2 by 10 ms
		{ID: 4, Parent: 3, StartNS: ms(35), EndNS: ms(45)},
		{ID: 5, Parent: 1, StartNS: ms(90), EndNS: ms(120)}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40 * time.Millisecond, 2: 30 * time.Millisecond, 3: 20 * time.Millisecond, 4: 10 * time.Millisecond, 5: 30 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	tr := newTracer("w")
	tr.do("outer", func() { tr.do("inner", func() {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 || tr.spans[0].EndNS < tr.spans[1].EndNS {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
}
