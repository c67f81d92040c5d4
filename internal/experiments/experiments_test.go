package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entropy"
)

// quickCfg keeps experiment smoke tests fast: tiny datasets, tight
// budgets. The full-scale runs happen in the root bench suite and
// cmd/experiments.
func quickCfg() Config {
	return Config{
		Scale:    300,
		Budget:   300 * time.Millisecond,
		Epsilons: []float64{0, 0.2},
	}
}

// skipIfShort gates the experiment smoke tests: together they re-mine
// the full dataset registry and take ~40s, so `go test -short` skips
// them while the unflagged run keeps full coverage.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping experiment smoke test in -short mode")
	}
}

func TestTable2Smoke(t *testing.T) {
	skipIfShort(t)
	out := Table2(quickCfg())
	if !strings.Contains(out, "Bridges") || !strings.Contains(out, "Voter State") {
		t.Fatalf("Table 2 output incomplete:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 22 {
		t.Fatalf("expected 20 dataset rows plus header:\n%s", out)
	}
}

func TestFig10NurserySmoke(t *testing.T) {
	skipIfShort(t)
	cfg := quickCfg()
	cfg.Budget = 2 * time.Second
	out := Fig10Nursery(cfg)
	if !strings.Contains(out, "Nursery use case") || !strings.Contains(out, "pareto-optimal") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFig12Smoke(t *testing.T) {
	skipIfShort(t)
	out := Fig12SpuriousVsJ(quickCfg())
	for _, name := range []string{"Breast-Cancer", "Bridges", "Nursery", "Echocardiogram"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestFig13Smoke(t *testing.T) {
	skipIfShort(t)
	out := Fig13Rows(quickCfg())
	for _, name := range []string{"Image", "Four Square (Spots)", "Ditag Feature"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	skipIfShort(t)
	out := Fig14Cols(quickCfg())
	for _, name := range []string{"Entity Source", "Voter State", "Census"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestFig15Smoke(t *testing.T) {
	skipIfShort(t)
	out := Fig15Quality(quickCfg())
	for _, name := range fig15Datasets {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestFig18Smoke(t *testing.T) {
	skipIfShort(t)
	out := Fig18FullMVDs(quickCfg())
	for _, name := range fig18Datasets {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	skipIfShort(t)
	out := AblationPairwiseConsistency(quickCfg())
	if !strings.Contains(out, "pairwise-consistency") {
		t.Fatalf("unexpected:\n%s", out)
	}
	out = AblationEntropyEngine(quickCfg())
	if !strings.Contains(out, "blocked L≤") || !strings.Contains(out, "direct (no cache)") {
		t.Fatalf("unexpected:\n%s", out)
	}
}

// TestAblationMarksBudgetedRows: a mine the budget cuts off is marked TL,
// so its partial counts are not read as a comparison.
func TestAblationMarksBudgetedRows(t *testing.T) {
	cfg := quickCfg()
	cfg.Budget = time.Nanosecond
	lines := strings.Split(strings.TrimSpace(AblationPairwiseConsistency(cfg)), "\n")
	rows := lines[2:] // the title and the column header
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 3 ε × 2 settings:\n%s", len(rows), strings.Join(lines, "\n"))
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, " TL") {
			t.Fatalf("row cut off by a 1 ns budget is not marked TL: %q", row)
		}
	}
}

func TestQuantiles(t *testing.T) {
	min, q25, med, q75, max := quantiles([]float64{5, 1, 3, 2, 4})
	if min != 1 || max != 5 || med != 3 {
		t.Fatalf("quantiles: %v %v %v %v %v", min, q25, med, q75, max)
	}
	if q25 != 2 || q75 != 4 {
		t.Fatalf("q25/q75: %v %v", q25, q75)
	}
	min, _, _, _, max = quantiles(nil)
	if min != 0 || max != 0 {
		t.Fatal("empty quantiles should be zero")
	}
}

func TestDedupeSchemes(t *testing.T) {
	skipIfShort(t)
	spec, err := datagen.Lookup("Bridges", 200)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.Generate()
	cfg := Config{Budget: time.Second}
	a := cfg.collectSchemes(entropy.New(r), 0, 20)
	merged := dedupeSchemes(a, a)
	if len(merged) != len(dedupeSchemes(a)) {
		t.Fatal("self-merge changed count")
	}
	seen := map[string]bool{}
	for _, st := range merged {
		key := st.scheme.Schema.String()
		if seen[key] {
			t.Fatal("duplicate schema after dedupe")
		}
		seen[key] = true
	}
}

// TestFig18PhaseBWithinBudget: phase B runs under its budget, not between
// budget checks. On the Bridges analog at ε 0.3 the expansion of EHL for
// the pair (5, 6) is one GetFullMVDs call of most of a second; under a
// 20 ms budget the phase must stop inside that call and return within the
// budget plus a fixed slack, with the budget's end reported and the
// unfinished list not counted.
func TestFig18PhaseBWithinBudget(t *testing.T) {
	const budget, slack = 20 * time.Millisecond, 250 * time.Millisecond
	spec, err := datagen.Lookup("Bridges", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Budget: budget}
	seps := &core.MVDResult{MinSeps: map[core.Pair][]bitset.AttrSet{
		{A: 5, B: 6}: {bitset.Of(4, 7, 11)},
	}}
	count, elapsed, timedOut := expandFullMVDs(cfg, cfg.minerFor(entropy.New(spec.Generate()), 0.3), seps)
	if elapsed > budget+slack {
		t.Fatalf("phase B took %v on a %v budget", elapsed, budget)
	}
	if !timedOut || count != 0 {
		t.Fatalf("phase B finished (%d full MVDs in %v) inside a %v budget; the test needs a longer search",
			count, elapsed, budget)
	}
}
