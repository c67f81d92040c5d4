// Package maimon is a Go reproduction of Maimon, the system of Kenig,
// Mundra, Prasad, Salimi and Suciu, "Mining Approximate Acyclic Schemes
// from Relations" (SIGMOD 2020): discovery of approximate multivalued
// dependencies (MVDs) and approximate acyclic schemas from a single
// relation instance, with an information-theoretic notion of
// approximation.
//
// The J-measure of an MVD or acyclic schema is an expression over
// empirical entropies that is zero exactly when the dependency holds
// (Lee's theorem); a dependency is an ε-MVD / ε-schema when J ≤ ε bits.
// Mining proceeds in two phases: MVDMiner enumerates the full ε-MVDs with
// minimal-separator keys, and ASMiner synthesizes non-extendable acyclic
// schemas from maximal pairwise-compatible subsets of them.
//
// # Sessions
//
// The unit of work is a Session (Open): it owns the dictionary-encoded
// relation, the PLI partition cache, and the entropy memo — the paper's
// "most expensive operation" — and shares that warm state across every
// call, so exploring one relation at several thresholds (the workload of
// every figure in the paper) pays the entropy cost once. Sessions are
// safe for concurrent use. Mining methods take a context plus functional
// options:
//
//	r, err := maimon.LoadCSV("data.csv", true)
//	if err != nil { ... }
//	s, err := maimon.Open(r)
//	if err != nil { ... }
//	schemes, result, err := s.MineSchemes(ctx, maimon.WithEpsilon(0.1))
//	for _, sc := range schemes {
//	    fmt.Println(sc.Schema.Format(r.Names()), sc.J)
//	}
//	_ = result.MVDs // the mined full ε-MVDs
//	// A second mine reuses every entropy computed by the first:
//	more, _, err := s.MineSchemes(ctx, maimon.WithEpsilon(0.3))
//
// Sessions mine in parallel: attribute pairs (the paper's Fig. 3 loop)
// fan out across WithWorkers goroutines — GOMAXPROCS by default — over
// the session's single-flight entropy oracle, with results merged in
// canonical pair order so a parallel mine is byte-identical to a serial
// one. A session's memory is governable: WithMemoryBudget bounds the PLI
// partition cache, which evicts cold partitions (and recomputes them on
// demand) rather than grow without bound — under any budget the mining
// output stays byte-identical, only the cost moves; Session.Stats
// reports the live occupancy and eviction pressure.
// Session.SchemeSeq streams schemes as ASMiner synthesizes them,
// and WithProgress delivers structured progress events from the core
// mining loops. The legacy free functions remain deprecated but working: the
// mining entry points (MineMVDs, MineSchemes and the *Context variants)
// open a throwaway single-goroutine session per call, and the scorers
// (J, JOfSchema, Analyze) evaluate against a fresh oracle directly —
// either way the expensive state is rebuilt every call, which is what
// Session exists to avoid. See MIGRATION.md for the one-line mapping.
//
// The packages under internal/ hold the implementation: entropy engine
// (PLI-style stripped partitions), minimal-separator and full-MVD search,
// schema enumeration, decomposition quality metrics, synthetic dataset
// generators, and brute-force baselines. This root package is a thin,
// stable facade over them.
//
// Besides the library there are two binaries: cmd/maimon, a one-shot CLI
// over a CSV file, and cmd/maimond, a resident mining service with a
// session registry, an asynchronous cancellable job pipeline, and a JSON
// HTTP API (internal/service). See README.md for the full tour, CLI
// usage and HTTP API reference with curl examples.
package maimon

import (
	"context"
	"io"
	"time"

	"repro/internal/bitset"
	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decompose"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/mvd"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the public names.
type (
	// Relation is a column-oriented, dictionary-encoded relation instance.
	Relation = relation.Relation
	// AttrSet is a set of attribute indices (at most 64 attributes).
	AttrSet = bitset.AttrSet
	// MVD is a generalized multivalued dependency X ↠ Y1|…|Ym.
	MVD = mvd.MVD
	// Schema is a set of relation schemas over a common universe.
	Schema = schema.Schema
	// JoinTree is a join tree witnessing a schema's acyclicity.
	JoinTree = schema.JoinTree
	// Scheme is a mined acyclic schema together with its J-measure.
	Scheme = core.Scheme
	// MVDResult is the outcome of the MVD-mining phase.
	MVDResult = core.MVDResult
	// PairMVDs is one attribute pair's phase-1 outcome (separators plus
	// locally-deduped full ε-MVDs), the unit Session.MinePairMVDs returns
	// and the distributed mining tier ships between workers and
	// coordinator.
	PairMVDs = core.PairMVDs
	// Metrics quantifies a decomposition (savings, spurious tuples, ...).
	Metrics = decompose.Metrics
	// Decomposition is a relation projected onto a schema's join tree.
	Decomposition = decompose.Decomposition
)

// Options configures mining through the legacy free functions.
//
// Deprecated: use Open with functional options (WithEpsilon, WithTimeout,
// WithMaxSchemes, WithPruning); the Session they configure reuses its
// entropy state across calls, which this one-shot surface cannot.
type Options struct {
	// Epsilon is the approximation threshold ε ≥ 0 in bits; 0 mines exact
	// dependencies.
	Epsilon float64
	// Timeout bounds the total mining time across both phases; zero means
	// unlimited. On the free functions it is a single context.WithTimeout
	// layered over the caller's context (exactly one timer — the core
	// per-phase Budget is not armed); NewMiner, which has no context,
	// lowers it to the wall-clock per-phase Budget instead.
	Timeout time.Duration
	// MaxSchemes bounds how many schemes MineSchemes returns (0 = all).
	MaxSchemes int
	// DisablePruning turns off the pairwise-consistency optimization
	// (paper App. 12.3); intended for ablation only.
	DisablePruning bool
}

// sessionOptions lowers the flat struct to the functional options the
// Session path takes. Timeout rides the context (one timer), so it is
// included here and not in coreOptions.
func (o Options) sessionOptions() []Option {
	return []Option{
		WithEpsilon(o.Epsilon),
		WithTimeout(o.Timeout),
		WithMaxSchemes(o.MaxSchemes),
		WithPruning(!o.DisablePruning),
	}
}

// coreOptions lowers Options for the contextless NewMiner path only: the
// wall-clock per-phase Budget stands in for the context timeout the raw
// miner does not have. The Session entry points never set Budget — they
// bound time exclusively through the context, so exactly one timer is
// armed per call (previously both fired for the same duration).
func (o Options) coreOptions() core.Options {
	opts := core.DefaultOptions(o.Epsilon)
	opts.PairwiseConsistency = !o.DisablePruning
	opts.Budget = o.Timeout
	return opts
}

// ErrInterrupted is returned (as MVDResult.Err and the entry points'
// error) when mining hit the configured timeout or the context's
// deadline; partial results are still valid. Cancelling the context
// passed to the Session methods (or MineMVDsContext/MineSchemesContext)
// instead surfaces context.Canceled, so callers can distinguish a
// cancelled job from one that ran out of time.
var ErrInterrupted = core.ErrInterrupted

// LoadCSV reads a relation from a CSV file. With header = true the first
// record names the attributes.
func LoadCSV(path string, header bool) (*Relation, error) {
	return relation.ReadCSVFile(path, header)
}

// ReadCSV reads a relation from a CSV stream.
func ReadCSV(r io.Reader, header bool) (*Relation, error) {
	return relation.ReadCSV(r, header)
}

// FromRows builds a relation from string rows.
func FromRows(names []string, rows [][]string) (*Relation, error) {
	return relation.FromRows(names, rows)
}

// NewMiner exposes the two-phase miner directly for callers that need
// fine-grained control (per-pair separator mining, custom enumeration
// callbacks). Options.Timeout applies as a wall-clock budget per mining
// phase; for cancellation, bind a context via (*core.Miner).WithContext.
// Most callers want Open instead: a Session shares its entropy state
// across calls and is safe for concurrent use, which a raw miner is not.
func NewMiner(r *Relation, opts Options) *core.Miner {
	return core.NewMiner(entropy.New(r), opts.coreOptions())
}

// MineMVDs runs phase 1 (MVDMiner): it returns Mε, the full ε-MVDs with
// minimal-separator keys, from which every ε-MVD of the relation follows
// by Shannon inequalities (paper Thm. 5.7).
//
// Deprecated: use Open and Session.MineMVDs, which reuse the entropy
// state across calls instead of rebuilding it.
func MineMVDs(r *Relation, opts Options) (*MVDResult, error) {
	return MineMVDsContext(context.Background(), r, opts)
}

// MineMVDsContext is MineMVDs under a context: cancelling ctx stops the
// search promptly and returns the ε-MVDs mined so far together with
// ctx's error (context.Canceled, or ErrInterrupted for a deadline).
//
// Deprecated: use Open and Session.MineMVDs.
func MineMVDsContext(ctx context.Context, r *Relation, opts Options) (*MVDResult, error) {
	s, err := openUnshared(r)
	if err != nil {
		return nil, err
	}
	return s.MineMVDs(ctx, opts.sessionOptions()...)
}

// MineSchemes runs both phases and returns the non-extendable acyclic
// ε-schemas synthesized from maximal compatible MVD sets, along with the
// phase-1 result. Schemes arrive in enumeration order; use Analyze to
// rank them by savings and spurious-tuple rate.
//
// Deprecated: use Open and Session.MineSchemes (or Session.SchemeSeq to
// stream schemes as they are synthesized).
func MineSchemes(r *Relation, opts Options) ([]*Scheme, *MVDResult, error) {
	return MineSchemesContext(context.Background(), r, opts)
}

// MineSchemesContext is MineSchemes under a context: cancelling ctx stops
// either phase promptly and returns the schemes mined so far together
// with ctx's error (context.Canceled, or ErrInterrupted for a deadline).
//
// Deprecated: use Open and Session.MineSchemes.
func MineSchemesContext(ctx context.Context, r *Relation, opts Options) ([]*Scheme, *MVDResult, error) {
	s, err := openUnshared(r)
	if err != nil {
		return nil, nil, err
	}
	return s.MineSchemes(ctx, opts.sessionOptions()...)
}

// J returns the J-measure (bits) of an MVD over the relation's empirical
// distribution: 0 iff the MVD holds exactly.
//
// Deprecated: use Open and Session.J — on a session the entropies behind
// repeated J evaluations are computed once.
func J(r *Relation, m MVD) float64 {
	return info.JMVD(entropy.New(r), m)
}

// JOfSchema returns the J-measure of an acyclic schema (errors when the
// schema is cyclic).
//
// Deprecated: use Open and Session.JOfSchema.
func JOfSchema(r *Relation, s Schema) (float64, error) {
	return info.JSchema(entropy.New(r), s)
}

// Analyze computes decomposition-quality metrics (storage savings S,
// spurious-tuple rate E, width measures) of schema s over r.
//
// Deprecated: use Open and Session.Analyze.
func Analyze(r *Relation, s Schema) (Metrics, error) {
	return decompose.Analyze(entropy.New(r), s)
}

// ParseMVD parses "AD->CF|BE" (letters) into an MVD.
func ParseMVD(s string) (MVD, error) { return mvd.Parse(s) }

// NewSchema canonicalizes a set of relation schemas.
func NewSchema(relations []AttrSet) (Schema, error) { return schema.New(relations) }

// Nursery reconstructs the paper's Sec. 8.1 use-case dataset (12960 rows,
// 9 attributes; the class column is a procedural approximation of the
// original decision model — see internal/datagen/nursery.go).
func Nursery() *Relation { return datagen.Nursery() }

// CIStatements converts mined MVDs to the saturated conditional
// independence statements they encode (the Geiger–Pearl equivalence the
// paper builds on), deduplicated and in canonical order — the adapter for
// graphical-model tooling.
func CIStatements(mvds []MVD) []ci.Statement { return ci.MinedToCI(mvds) }
