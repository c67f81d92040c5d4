// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 8) on the synthetic analog datasets:
//
//	Table 2  — full-MVD mining at ε = 0 across the 20 datasets
//	Fig. 10/11 — the Nursery use case: schemes, savings S, spurious E,
//	             pareto front
//	Fig. 12  — spurious-tuple rate vs J-measure, bucketed
//	Fig. 13  — row scalability of minimal-separator mining
//	Fig. 14  — column scalability (runtime and #minimal separators)
//	Fig. 15  — quality of schemes vs ε (#schemes, #relations, widths)
//	Fig. 18  — #full MVDs vs ε and generation rate
//
// plus two ablations (pairwise-consistency pruning; entropy-engine block
// size). Each driver prints a paper-style
// table and returns it as a string; cmd/experiments and the root bench
// suite are thin wrappers. Runtimes are not expected to match the paper's
// (Java, 120-CPU machine, 5-hour limits); shapes are.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/entropy"
	"repro/internal/schema"
)

// Config tunes an experiment run.
type Config struct {
	// Out receives the report as it is produced; nil discards it (the
	// report is always returned as a string too).
	Out io.Writer
	// Scale caps analog dataset rows (0 = the 10000 default).
	Scale int
	// Budget bounds each mining invocation (a scaled-down stand-in for
	// the paper's 5-hour/30-minute limits). 0 means 5 seconds.
	Budget time.Duration
	// Epsilons is the threshold sweep for the ε-dependent figures
	// (default 0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5).
	Epsilons []float64
	// Workers is the parallel fan-out of every mining invocation
	// (core.Options.Workers) and scheme ranking (decompose.AnalyzeAll).
	// <= 1 (the default) mines serially, matching the paper's
	// single-threaded system; > 1 fans attribute pairs out, which changes
	// runtimes but — the pipeline being deterministic — none of the
	// reported counts.
	Workers int
}

func (c Config) budget() time.Duration {
	if c.Budget <= 0 {
		return 5 * time.Second
	}
	return c.Budget
}

func (c Config) epsilons() []float64 {
	if len(c.Epsilons) == 0 {
		return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return c.Epsilons
}

// report accumulates a text table and tees it to cfg.Out.
type report struct {
	b   strings.Builder
	out io.Writer
}

func newReport(out io.Writer) *report { return &report{out: out} }

func (r *report) printf(format string, args ...interface{}) {
	s := fmt.Sprintf(format, args...)
	r.b.WriteString(s)
	if r.out != nil {
		io.WriteString(r.out, s)
	}
}

func (r *report) String() string { return r.b.String() }

// minerFor builds a miner over a (possibly warm) oracle with the
// configured parallel fan-out. The ε-sweep drivers reuse one oracle per
// dataset across thresholds — the session pattern of the public API, so a
// sweep pays the PLI and entropy cost once instead of once per ε.
func (c Config) minerFor(o *entropy.Oracle, eps float64) *core.Miner {
	opts := core.DefaultOptions(eps)
	opts.Workers = c.Workers
	return core.NewMiner(o, opts)
}

// budgeted runs one top-level mining phase of m under its own time
// budget, as in the paper's per-phase time limits: a fresh
// context.WithTimeout(cfg.budget()) is bound before the phase and
// cancelled after it, so no phase inherits what an earlier one spent.
// It returns what the phase returns; a non-nil error is the budget's
// stop, the TL mark of the reports.
func budgeted[T any](c Config, m *core.Miner, phase func() (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.budget())
	defer cancel()
	m.WithContext(ctx)
	return phase()
}

// schemeStats is one mined scheme with its decomposition metrics.
type schemeStats struct {
	scheme  *core.Scheme
	metrics decompose.Metrics
}

// collectSchemes mines schemes at the given ε over the dataset's oracle
// and computes metrics for each, within the budget (one per phase) and
// scheme cap: the schemes are enumerated up to the cap, then ranked as one
// batch, which shares the class tables of their bags and separators.
// Mined schemes cover the relation and are acyclic, so every one is
// ranked. The budget stops the enumeration only: the ranking that follows
// does not check it, so a phase can overrun its budget by one ranking of
// at most maxSchemes schemes (every one enumerated, if maxSchemes <= 0).
func (c Config) collectSchemes(o *entropy.Oracle, eps float64, maxSchemes int) []schemeStats {
	m := c.minerFor(o, eps)
	res, _ := budgeted(c, m, m.MineMVDs)
	out, _ := budgeted(c, m, func() ([]schemeStats, error) {
		var schemes []*core.Scheme
		var schemas []schema.Schema
		err := m.EnumerateSchemes(res.MVDs, maxSchemes, func(s *core.Scheme) bool {
			schemes = append(schemes, s)
			schemas = append(schemas, s.Schema)
			return true
		})
		mets, errs := decompose.AnalyzeAll(context.Background(), o, schemas, c.Workers)
		out := make([]schemeStats, 0, len(schemes))
		for i, s := range schemes {
			if errs[i] == nil {
				out = append(out, schemeStats{scheme: s, metrics: mets[i]})
			}
		}
		return out, err
	})
	return out
}

// dedupeSchemes merges scheme collections across ε values, keeping one
// entry per distinct schema (the lowest-J occurrence, the first of
// equals), ordered by J, then by the relations word by word.
func dedupeSchemes(collections ...[]schemeStats) []schemeStats {
	out := slices.Concat(collections...)
	slices.SortStableFunc(out, func(a, b schemeStats) int {
		return cmp.Or(slices.Compare(a.scheme.Schema.Relations, b.scheme.Schema.Relations),
			cmp.Compare(a.scheme.J, b.scheme.J))
	})
	out = slices.CompactFunc(out, func(a, b schemeStats) bool { return a.scheme.Schema.Equal(b.scheme.Schema) })
	slices.SortFunc(out, func(a, b schemeStats) int {
		return cmp.Or(cmp.Compare(a.scheme.J, b.scheme.J),
			slices.Compare(a.scheme.Schema.Relations, b.scheme.Schema.Relations))
	})
	return out
}

// quantiles returns min, q25, median, q75, max of the (sorted-in-place)
// values; zeros when empty.
func quantiles(vals []float64) (min, q25, med, q75, max float64) {
	if len(vals) == 0 {
		return
	}
	sort.Float64s(vals)
	at := func(q float64) float64 {
		idx := int(q * float64(len(vals)-1))
		return vals[idx]
	}
	return vals[0], at(0.25), at(0.5), at(0.75), vals[len(vals)-1]
}
