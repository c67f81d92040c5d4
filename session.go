package maimon

import (
	"context"
	"errors"
	"iter"
	"runtime"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/entropy"
	"repro/internal/info"
	"repro/internal/obs"
	"repro/internal/pli"
)

// Progress is a structured progress event emitted from the mining loops
// when WithProgress is set: phase ("minseps", "mvds", "schemes"), pairs
// done/total, separators and candidate MVDs evaluated, full MVDs and
// schemes streamed so far. Events are cumulative snapshots; the callback
// runs synchronously on the mining goroutine and must be fast.
type Progress = core.Progress

// MineTrace is the stage-level record of one mining call: one phase per
// top-level mining phase, each with wall time, the entropy/PLI work it
// caused (as counter deltas), and a per-stage breakdown (separator
// mining, full-MVD expansion, graph build, schema synthesis). Every
// stage count and entropy-level count in a trace is deterministic
// across WithWorkers settings — a parallel mine performs exactly a
// serial mine's work — so two traces of the same mine differ only in
// durations and PLI-layer scheduling detail (hit/miss split, intersect
// and byte counts); MineTrace.CountsOnly reduces a trace to the
// invariant projection. WithTrace hands a call's trace to the caller.
type MineTrace = obs.MineTrace

// PhaseTrace, StageTrace and OracleDelta are the components of a
// MineTrace.
type (
	PhaseTrace  = obs.PhaseTrace
	StageTrace  = obs.StageTrace
	OracleDelta = obs.OracleDelta
)

// Stats is a snapshot of a session's entropy-oracle counters: H calls,
// memo hits, MI evaluations, and the PLI cache counters beneath them. The
// paper calls entropy computation "the most expensive operation of
// Maimon"; these numbers are its true cost, and HCached growing across
// mines is the signature of warm-state reuse.
type Stats = entropy.Stats

// config is the resolved option set. A Session keeps the Open-time config
// as its per-call defaults; each mining call starts from a copy.
type config struct {
	epsilon       float64
	maxSchemes    int
	workers       int // 0 = GOMAXPROCS (the WithWorkers default)
	pliCfg        pli.Config
	entropyBudget int64 // entropy-memo byte budget; 0 = unlimited
	progress      func(Progress)
	trace         *MineTrace
}

func defaultSessionConfig() config {
	return config{maxSchemes: DefaultMaxSchemes, pliCfg: pli.DefaultConfig()}
}

func (c config) with(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Option configures Open and the Session mining methods. Options given to
// Open become the session's defaults; options given to a mining call
// override them for that call only.
type Option func(*config)

// WithEpsilon sets the approximation threshold ε ≥ 0 in bits; 0 (the
// default) mines exact dependencies.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// DefaultMaxSchemes is how many schemes a mining call enumerates unless
// WithMaxSchemes says otherwise. The number of maximal compatible MVD
// sets can be exponential in |Mε|, so an uncapped enumeration on a wide
// approximate input may not end; maimon's -max-schemes and maimond's
// max_schemes default to the same cap.
const DefaultMaxSchemes = 100

// WithMaxSchemes bounds how many schemes MineSchemes and SchemesFromMVDs
// return and SchemeSeq yields: DefaultMaxSchemes by default, 0 for all.
func WithMaxSchemes(n int) Option { return func(c *config) { c.maxSchemes = n } }

// WithWorkers sets the fan-out of the parallel mining pipeline and of
// scheme ranking: attribute pairs (the paper's Fig. 3 loop) are distributed
// across n worker miners over the session's shared single-flight oracle,
// n goroutines write the rows of ASMiner's incompatibility graph in place,
// and AnalyzeAll ranks n schemes at a time. Results are deterministic —
// identical to a serial mine and a serial ranking of the same relation.
//
// The default (n = 0, or any n <= 0) is runtime.GOMAXPROCS(0). n = 1
// mines serially, as the paper's single-threaded system does.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMemoryBudget bounds the bytes the session's PLI partition cache
// retains (the entropy memo is governed separately — see
// WithEntropyBudget). When mining pushes the cache past the budget, cold
// partitions are evicted — by a second-chance clock, single-attribute
// partitions always pinned — and recomputed if needed again, so a budget
// trades recomputation for residency and never changes mining results: a
// run under any budget is byte-identical to an unlimited one. bytes <= 0
// means unlimited (the default). Honored by Open only — the cache is
// built once per session — and ignored by the per-call mining methods.
// Session.Stats reports the live occupancy (PLIStats.BytesLive, with
// pinned bytes in PLIStats.BytesPinned) and the evictions
// (PLIStats.Drops + PLIStats.Demotions).
func WithMemoryBudget(bytes int64) Option {
	return func(c *config) { c.pliCfg.MaxBytes = bytes }
}

// WithSpillDir enables the PLI cache's disk spill tier under dir:
// evictions demote partitions whose rebuild cascade would scan more
// bytes than a disk read costs into an append-only segment store there,
// and later misses promote them back with one checksummed sequential
// read instead of recomputing. Segments are stamped with the relation's
// shape hash, so a directory left by a previous process over the same
// data starts the session warm, while one from different data is
// discarded with a log line. Like every budget knob this changes cost,
// never results — mining output is byte-identical to spill-off. Honored
// by Open only; call Session.Close to sync the segments and release
// their file handles. "" (the default) disables the tier.
func WithSpillDir(dir string) Option {
	return func(c *config) { c.pliCfg.SpillDir = dir }
}

// WithSpillBudget bounds the spill tier's on-disk footprint; past it the
// oldest spill segments are deleted and their partitions become plain
// misses again. bytes <= 0 means unlimited (the default). Only
// meaningful with WithSpillDir; honored by Open only.
func WithSpillBudget(bytes int64) Option {
	return func(c *config) { c.pliCfg.SpillMaxBytes = bytes }
}

// WithEntropyBudget bounds the bytes the session's entropy memo retains.
// The memo caches one 8-byte entropy per distinct attribute set ever
// evaluated; across long ε sweeps over wide relations it becomes the
// dominant resident weight, so past the budget the memo evicts by the
// PLI cache's rule — one budget over the whole memo, at 48 bytes an
// entry, kept by a second-chance clock: an entropy read since the last
// sweep gets one more lap, a cold one goes, and one that cannot fit is
// not kept — and recomputes evicted entropies from the PLI cache on the
// next read. Results are
// byte-identical under any budget. bytes <= 0 means unlimited (the
// default). Honored by Open only; Session.Stats reports the memo
// occupancy (MemoBytes) and eviction count (MemoEvictions).
//
// On a relation of at most 16 attributes the unbudgeted memo is a table
// of 8·2ⁿ bytes indexed by the attribute set (64 KiB at 13 columns),
// reported whole in MemoBytes and never evicted; a budget of at least
// that keeps it, a smaller one makes the memo hashed and bounded.
//
// Where the memo is hashed — above 16 attributes, or under a budget below
// 8·2ⁿ bytes — each mining worker keeps a view of the entropies it has
// counted or been served, up to 2^16 entries (at most 2 MiB of slots),
// not counted in the budget. A view belongs to one worker; under a budget
// the other workers of the phase, and then the scheme phase, read it
// before they go to the memo, and it lives until the mine ends, so within
// a mine an entropy the mining phase counted is not counted again at any
// fan-out, whatever the budget evicts. Over the dense table a worker
// keeps no such view.
func WithEntropyBudget(bytes int64) Option {
	return func(c *config) { c.entropyBudget = bytes }
}

// WithProgress installs a callback receiving structured Progress events
// from the core mining loops.
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// WithTrace has a mining call fill a caller-owned MineTrace when it
// returns: one PhaseTrace per top-level phase the call ran, replacing
// what the trace held. It is the one way to read a mine's trace. Given to
// a mining call, the trace is that call's alone and race-free to read
// once it returns; given to Open, every call writes it, so concurrent
// calls overwrite one another's.
func WithTrace(t *MineTrace) Option { return func(c *config) { c.trace = t } }

// coreOptions lowers the resolved config to core.Options. A deadline is
// absent: it rides the caller's context, the miner's one stop signal.
func (c config) coreOptions() core.Options {
	o := core.DefaultOptions(c.epsilon)
	o.Progress = c.progress
	o.Workers = c.fanout()
	return o
}

// fanout resolves WithWorkers: n <= 0 means GOMAXPROCS.
func (c config) fanout() int {
	if c.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
}

// Session is a reusable, concurrency-safe mining handle over one
// relation. It owns the expensive state — the dictionary-encoded relation,
// the PLI partition cache, and the entropy memo — and shares it across
// every call, so a second mine at a different ε pays only for the entropy
// sets it has not seen yet (the workload of the paper's figures, which
// re-score one instance under many thresholds).
//
// All methods are safe for concurrent use: the shared oracle's memo is
// striped into shards, each under its own short mutex, so warm entropies
// of different sets take different locks; fresh ones are computed
// single-flight per attribute set, so distinct sets — whether requested
// by concurrent calls or by the worker pool of one call — are computed in
// parallel, each exactly once. Mining itself fans attribute pairs out across
// WithWorkers goroutines (GOMAXPROCS by default) with deterministic,
// serial-identical results.
type Session struct {
	rel    *Relation
	oracle *entropy.Oracle
	base   config
}

// Open builds a session over r. Options become the session's per-call
// defaults; the memory and spill options (WithMemoryBudget,
// WithEntropyBudget, WithSpillDir, WithSpillBudget) also size the oracle,
// which is built here, once.
func Open(r *Relation, opts ...Option) (*Session, error) {
	if r == nil {
		return nil, errors.New("maimon: Open on a nil relation")
	}
	cfg := defaultSessionConfig().with(opts)
	oracle := entropy.NewShared(r, cfg.pliCfg)
	oracle.SetMemoBudget(cfg.entropyBudget)
	return &Session{rel: r, oracle: oracle, base: cfg}, nil
}

// Relation returns the relation the session mines.
func (s *Session) Relation() *Relation { return s.rel }

// Close releases the session's disk spill tier, if WithSpillDir enabled
// one: its segments are synced and stay on disk, so the next session over
// the same directory and relation rescans them and starts warm. In-memory mining state is
// unaffected — a closed session can keep mining, it just stops spilling.
// A session without a spill tier has nothing to close. Idempotent.
func (s *Session) Close() error { return s.oracle.Close() }

// Stats snapshots the session's entropy-oracle counters. The delta across
// two mines measures what the second one actually cost; HCached growing
// is the warm-oracle reuse the session exists for.
func (s *Session) Stats() Stats { return s.oracle.Stats() }

// mine is the one way into a mining call. It refuses a relation of
// fewer than 3 attributes, resolves opts over the session defaults, binds
// a miner to ctx under a cancel that runs on return (which drops the
// miner's AfterFunc), runs run, and copies the miner's trace into the
// WithTrace target, if any. run returns the call's error.
func (s *Session) mine(ctx context.Context, what string, opts []Option, run func(m *core.Miner, cfg config) error) error {
	if s.rel.NumCols() < 3 {
		return errors.New("maimon: need at least 3 attributes to mine " + what)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := s.base.with(opts)
	m := core.NewMiner(s.oracle, cfg.coreOptions()).WithContext(ctx)
	if cfg.trace != nil {
		defer func() { *cfg.trace = *m.Trace() }()
	}
	return run(m, cfg)
}

// MineMVDs runs phase 1 (MVDMiner): it returns Mε, the full ε-MVDs with
// minimal-separator keys, from which every ε-MVD of the relation follows
// by Shannon inequalities (paper Thm. 5.7). Cancelling ctx stops the
// search promptly and returns the ε-MVDs mined so far together with
// ctx.Err(): context.Canceled, or context.DeadlineExceeded past ctx's
// deadline.
func (s *Session) MineMVDs(ctx context.Context, opts ...Option) (res *MVDResult, err error) {
	err = s.mine(ctx, "MVDs", opts, func(m *core.Miner, _ config) (err error) {
		res, err = m.MineMVDs()
		return err
	})
	return res, err
}

// MinePairMVDs runs phase 1 over exactly the given attribute pairs and
// returns the per-pair outcomes — each pair's minimal separators and the
// full ε-MVDs expanded from them, locally deduplicated in discovery
// order — without the cross-pair merge MineMVDs performs. It is the
// worker half of distributed mining: a maimond worker mines the pairs of
// its shards through this method, and the coordinator merges all shards'
// outcomes in canonical pair order with a global dedup, replaying
// exactly what a single-node mine does (internal/dist owns that merge).
// Outcomes are indexed like pairs; WithWorkers bounds the worker-local
// fan-out and never changes the outcomes.
func (s *Session) MinePairMVDs(ctx context.Context, pairs [][2]int, opts ...Option) (out []PairMVDs, err error) {
	err = s.mine(ctx, "MVDs", opts, func(m *core.Miner, _ config) (err error) {
		out, err = m.MinePairMVDs(pairs)
		return err
	})
	return out, err
}

// SchemesFromMVDs runs phase 2 (ASMiner) alone over an already-mined Mε:
// it enumerates the non-extendable acyclic ε-schemas synthesized from
// maximal pairwise-compatible subsets of mvds, exactly as MineSchemes
// does after its own phase 1. It exists for callers that obtained the
// ε-MVDs elsewhere — the distributed coordinator, which merges
// worker-mined shard results and then runs the cheap central phase here.
// WithMaxSchemes bounds the enumeration; a deadline or cancelled ctx
// surfaces as with the other mining methods, with the schemes synthesized
// so far still valid.
func (s *Session) SchemesFromMVDs(ctx context.Context, mvds []MVD, opts ...Option) (out []*Scheme, err error) {
	err = s.mine(ctx, "schemes", opts, func(m *core.Miner, cfg config) error {
		return m.EnumerateSchemes(mvds, cfg.maxSchemes, func(sc *Scheme) bool {
			out = append(out, sc)
			return true
		})
	})
	return out, err
}

// MineMinSeps runs only the separator phase for every attribute pair —
// the workload of the paper's scalability experiments (Sec. 8.3). The
// result's MinSeps map is filled; no full MVDs are expanded.
func (s *Session) MineMinSeps(ctx context.Context, opts ...Option) (res *MVDResult, err error) {
	err = s.mine(ctx, "separators", opts, func(m *core.Miner, _ config) (err error) {
		res, err = m.MineMinSepsAll()
		return err
	})
	return res, err
}

// MineSchemes runs both phases and returns the non-extendable acyclic
// ε-schemas synthesized from maximal compatible MVD sets, along with the
// phase-1 result. Schemes arrive in enumeration order; use AnalyzeAll to
// rank them by savings and spurious-tuple rate, or SchemeSeq to consume
// them as they are synthesized. A stop in either phase is returned as
// ctx.Err(); a stop in phase 1 returns its partial result with no
// schemes.
func (s *Session) MineSchemes(ctx context.Context, opts ...Option) (schemes []*Scheme, res *MVDResult, err error) {
	err = s.mine(ctx, "schemes", opts, func(m *core.Miner, cfg config) (err error) {
		if res, err = m.MineMVDs(); err != nil {
			return err
		}
		return m.EnumerateSchemes(res.MVDs, cfg.maxSchemes, func(sc *Scheme) bool {
			schemes = append(schemes, sc)
			return true
		})
	})
	return schemes, res, err
}

// SchemeSeq mines schemes as a stream: phase 1 runs first, then each
// scheme is yielded the moment ASMiner synthesizes it, without collecting
// the whole result set. Breaking out of the range loop stops the
// underlying miner immediately (the enumeration runs inline on the
// consumer's goroutine — there is nothing left running). A phase-1
// failure, a deadline, or a cancelled ctx surfaces as a final
// (nil, error) yield; WithMaxSchemes bounds the yields.
//
//	for scheme, err := range session.SchemeSeq(ctx, maimon.WithEpsilon(0.1)) {
//	    if err != nil { ... }
//	    use(scheme)
//	}
func (s *Session) SchemeSeq(ctx context.Context, opts ...Option) iter.Seq2[*Scheme, error] {
	return func(yield func(*Scheme, error) bool) {
		broke := false
		err := s.mine(ctx, "schemes", opts, func(m *core.Miner, cfg config) error {
			res, err := m.MineMVDs()
			if err != nil {
				return err
			}
			return m.EnumerateSchemes(res.MVDs, cfg.maxSchemes, func(sc *Scheme) bool {
				broke = !yield(sc, nil)
				return !broke
			})
		})
		if err != nil && !broke {
			yield(nil, err)
		}
	}
}

// J returns the J-measure (bits) of an MVD over the relation's empirical
// distribution, served from the warm oracle: 0 iff the MVD holds exactly.
func (s *Session) J(m MVD) float64 { return info.JMVD(s.oracle, m) }

// JOfSchema returns the J-measure of an acyclic schema (errors when the
// schema is cyclic), served from the warm oracle.
func (s *Session) JOfSchema(sch Schema) (float64, error) {
	return info.JSchema(s.oracle, sch)
}

// Analyze computes decomposition-quality metrics (storage savings S,
// spurious-tuple rate E, width measures) of schema sch over the session's
// relation: AnalyzeAll of the one schema. It counts over the classes of
// sch's bags and separators, grouped from the partitions in the session's
// PLI cache and never published back into it, so the cache's budgets
// (WithMemoryBudget, WithSpillDir) change its cost, never the metrics.
// Single calls share nothing: each groups its own bags and separators
// again, so rank many schemes with one AnalyzeAll.
func (s *Session) Analyze(sch Schema) (Metrics, error) {
	return decompose.Analyze(s.oracle, sch)
}

// AnalyzeAll is Analyze over a batch of schemas, ranked on WithWorkers
// goroutines (GOMAXPROCS by default). A batch shares its class tables:
// each distinct bag and separator of the batch is grouped once, however
// many schemes use it, and every schema is counted over those tables.
// The tables sit beside the PLI cache, at up to 4 bytes a row each; under
// WithMemoryBudget the batch is ranked in runs of schemas whose tables fit
// that budget, so ranking holds at most the budget again.
//
// Metrics and errors are indexed like schemas: a schema Analyze rejects
// has zero Metrics and its error at its index. Metrics are exact counts,
// so they are the same at any fan-out. Ranking stops once ctx is done: a
// schema it did not reach has zero Metrics and ctx.Err() at its index.
func (s *Session) AnalyzeAll(ctx context.Context, schemas []Schema, opts ...Option) ([]Metrics, []error) {
	return decompose.AnalyzeAll(ctx, s.oracle, schemas, s.base.with(opts).fanout())
}

// Decompose projects the session's relation onto every relation schema of
// sch, selecting the rows from the same class representatives Analyze
// counts over.
func (s *Session) Decompose(sch Schema) (*Decomposition, error) {
	return decompose.Decompose(s.oracle, sch)
}
