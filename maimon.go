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
// mining loops.
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
	"io"

	"repro/internal/bitset"
	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decompose"
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

// ErrInterrupted is returned (as MVDResult.Err and the entry points'
// error) when mining hit the deadline of the context passed to the
// Session methods; partial results are still valid. Cancelling the context
// passed to the Session methods instead surfaces context.Canceled, so
// callers can distinguish a cancelled job from one that ran out of time.
var ErrInterrupted = core.ErrInterrupted

// LoadCSV reads a relation from a CSV file. With header = true the first
// record names the attributes. The file is read whole into memory, then
// parsed on every core; the dialect and the errors are encoding/csv's
// (see relation.ReadCSV).
func LoadCSV(path string, header bool) (*Relation, error) {
	return relation.ReadCSVFile(path, header)
}

// ReadCSV reads a relation from a CSV stream, read whole into memory
// first and parsed as LoadCSV parses a file.
func ReadCSV(r io.Reader, header bool) (*Relation, error) {
	return relation.ReadCSV(r, header)
}

// FromRows builds a relation from string rows.
func FromRows(names []string, rows [][]string) (*Relation, error) {
	return relation.FromRows(names, rows)
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
