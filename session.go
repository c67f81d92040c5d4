package maimon

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sync/atomic"
	"time"

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

// PLIConfig tunes the PLI partition cache behind a session's entropy
// oracle: BlockSize is the paper's L (Sec. 6.3), the widest a block of the
// balanced column layout may be, MaxBytes is the memory budget eviction
// enforces (0 = unlimited; WithMemoryBudget is the shorthand), Shards
// overrides the cache's shard count, and SpillDir / SpillMaxBytes configure
// the disk spill tier (WithSpillDir, WithSpillBudget).
type PLIConfig = pli.Config

// MineTrace is the stage-level record of one mining call: one phase per
// top-level mining phase, each with wall time, the entropy/PLI work it
// caused (as counter deltas), and a per-stage breakdown (separator
// mining, full-MVD expansion, graph build, schema synthesis). Every
// stage count and entropy-level count in a trace is deterministic
// across WithWorkers settings — a parallel mine performs exactly a
// serial mine's work — so two traces of the same mine differ only in
// durations and PLI-layer scheduling detail (hit/miss split, intersect
// and byte counts); MineTrace.CountsOnly reduces a trace to the
// invariant projection.
// Session.Trace returns the last mine's trace; WithTrace threads a
// caller-owned trace through one call.
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

// DefaultPLIConfig mirrors the paper's implementation choices (L = 10,
// unlimited cache).
func DefaultPLIConfig() PLIConfig { return pli.DefaultConfig() }

// config is the resolved option set. A Session keeps the Open-time config
// as its per-call defaults; each mining call starts from a copy.
type config struct {
	epsilon       float64
	timeout       time.Duration
	maxSchemes    int
	pruning       bool
	workers       int // 0 = GOMAXPROCS (the WithWorkers default)
	pairs         [][2]int
	pliCfg        PLIConfig
	entropyBudget int64 // entropy-memo byte budget; 0 = unlimited
	progress      func(Progress)
	trace         *MineTrace
}

func defaultSessionConfig() config {
	return config{pruning: true, pliCfg: pli.DefaultConfig()}
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

// WithTimeout bounds one mining call's total wall-clock time across both
// phases; zero (the default) means unlimited. It is implemented as a
// single context.WithTimeout layered over the caller's context, so
// whichever of the caller's deadline and this timeout is earlier fires,
// surfacing as ErrInterrupted.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithMaxSchemes bounds how many schemes MineSchemes returns and
// SchemeSeq yields (0 = all, the default).
func WithMaxSchemes(n int) Option { return func(c *config) { c.maxSchemes = n } }

// WithPruning toggles the pairwise-consistency optimization (paper App.
// 12.3). It is on by default; turning it off is intended for ablation
// only.
func WithPruning(on bool) Option { return func(c *config) { c.pruning = on } }

// WithPairs restricts MVDMiner to the given attribute pairs; nil (the
// default) mines all pairs.
func WithPairs(pairs [][2]int) Option { return func(c *config) { c.pairs = pairs } }

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

// WithPLIConfig sets the PLI cache configuration of the session's entropy
// oracle. It is honored by Open only — the oracle is built once per
// session — and ignored by the per-call mining methods.
func WithPLIConfig(cfg PLIConfig) Option { return func(c *config) { c.pliCfg = cfg } }

// WithMemoryBudget bounds the bytes the session's PLI partition cache
// retains (the entropy memo is governed separately — see
// WithEntropyBudget). When mining pushes the cache past the budget, cold
// partitions are evicted — by a second-chance clock, single-attribute
// partitions always pinned — and recomputed if needed again, so a budget
// trades recomputation for residency and never changes mining results: a
// run under any budget is byte-identical to an unlimited one. bytes <= 0
// means unlimited (the default). Honored by Open only, like
// WithPLIConfig; Session.Stats reports the live occupancy
// (PLIStats.BytesLive, with pinned bytes in PLIStats.BytesPinned) and
// the eviction count (PLIStats.Evictions).
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
// by Open only; call Session.Close to persist the spill index for the
// next warm start. "" (the default) disables the tier.
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
// same second-chance clock as the PLI cache — an entropy read since the
// last sweep gets one more lap, a cold one goes — and recomputes evicted
// entropies from the PLI cache on the next read. Results are
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
// 8·2ⁿ bytes — the budget does not bound the mining workers' read-through
// views: for the length of one phase each worker keeps the entropies it
// has read in a private table of up to 2^16 entries (at most 2 MiB of
// slots), on top of the budget. Over the dense table a worker keeps no
// such view.
func WithEntropyBudget(bytes int64) Option {
	return func(c *config) { c.entropyBudget = bytes }
}

// WithProgress installs a callback receiving structured Progress events
// from the core mining loops.
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// WithTrace threads a caller-owned MineTrace through a mining call: the
// call resets it at entry and appends one PhaseTrace per top-level phase
// it runs. Tracing is always on — Session.Trace returns the last call's
// trace without this option — but a threaded trace is race-free to read
// the moment the call returns even when other mines run concurrently.
func WithTrace(t *MineTrace) Option { return func(c *config) { c.trace = t } }

// coreOptions lowers the resolved config to core.Options. The timeout is
// absent: it rides the context (mineContext), the miner's one stop signal.
func (c config) coreOptions() core.Options {
	o := core.DefaultOptions(c.epsilon)
	o.PairwiseConsistency = c.pruning
	o.Pairs = c.pairs
	o.Progress = c.progress
	o.Trace = c.trace
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

// mineContext derives the context one mining call observes: the caller's
// ctx with the configured timeout layered on top when set.
func (c config) mineContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
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

	// lastTrace holds the stage trace of the most recently completed
	// mining call (published atomically — concurrent mines each publish
	// their own whole trace; none is ever mutated after publication).
	lastTrace atomic.Pointer[MineTrace]
}

// Open builds a session over r. Options become the session's per-call
// defaults (WithPLIConfig additionally sizes the oracle, which is built
// here, once).
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
// one: the spill index is persisted so the next session over the same
// directory and relation starts warm. In-memory mining state is
// unaffected — a closed session can keep mining, it just stops spilling.
// A session without a spill tier has nothing to close. Idempotent.
func (s *Session) Close() error { return s.oracle.Close() }

// Stats snapshots the session's entropy-oracle counters. The delta across
// two mines measures what the second one actually cost; HCached growing
// is the warm-oracle reuse the session exists for.
func (s *Session) Stats() Stats { return s.oracle.Stats() }

// Trace returns the stage-level trace of the most recently completed
// mining call, or nil before the first one. Each call owns a fresh
// trace, finished when the call returns, so the result is safe to read
// and render (MineTrace.String) at any time — unless the session was
// opened with a WithTrace default, in which case the next call resets
// that shared trace. When calls run concurrently the last one to finish
// wins; thread a trace through WithTrace to pin one call's breakdown.
func (s *Session) Trace() *MineTrace { return s.lastTrace.Load() }

// config resolves one call's options over the session defaults.
func (s *Session) config(opts []Option) config { return s.base.with(opts) }

// miner builds the per-call miner: session-shared oracle, call-local
// options and context.
func (s *Session) miner(cfg config, ctx context.Context) *core.Miner {
	return core.NewMiner(s.oracle, cfg.coreOptions()).WithContext(ctx)
}

func (s *Session) checkArity(what string) error {
	if s.rel.NumCols() < 3 {
		return errors.New("maimon: need at least 3 attributes to mine " + what)
	}
	return nil
}

// MineMVDs runs phase 1 (MVDMiner): it returns Mε, the full ε-MVDs with
// minimal-separator keys, from which every ε-MVD of the relation follows
// by Shannon inequalities (paper Thm. 5.7). Cancelling ctx stops the
// search promptly and returns the ε-MVDs mined so far together with
// context.Canceled; a deadline (ctx's or WithTimeout) surfaces as
// ErrInterrupted.
func (s *Session) MineMVDs(ctx context.Context, opts ...Option) (*MVDResult, error) {
	if err := s.checkArity("MVDs"); err != nil {
		return nil, err
	}
	cfg := s.config(opts)
	ctx, cancel := cfg.mineContext(ctx)
	defer cancel()
	m := s.miner(cfg, ctx)
	res := m.MineMVDs()
	s.lastTrace.Store(m.Trace())
	return res, res.Err
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
func (s *Session) MinePairMVDs(ctx context.Context, pairs [][2]int, opts ...Option) ([]PairMVDs, error) {
	if err := s.checkArity("MVDs"); err != nil {
		return nil, err
	}
	cfg := s.config(opts)
	ctx, cancel := cfg.mineContext(ctx)
	defer cancel()
	m := s.miner(cfg, ctx)
	out, err := m.MinePairMVDs(pairs)
	s.lastTrace.Store(m.Trace())
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
func (s *Session) SchemesFromMVDs(ctx context.Context, mvds []MVD, opts ...Option) ([]*Scheme, error) {
	if err := s.checkArity("schemes"); err != nil {
		return nil, err
	}
	cfg := s.config(opts)
	ctx, cancel := cfg.mineContext(ctx)
	defer cancel()
	m := s.miner(cfg, ctx)
	var out []*Scheme
	m.EnumerateSchemes(mvds, func(sc *Scheme) bool {
		out = append(out, sc)
		return cfg.maxSchemes <= 0 || len(out) < cfg.maxSchemes
	})
	s.lastTrace.Store(m.Trace())
	return out, m.Err()
}

// MineMinSeps runs only the separator phase for every attribute pair —
// the workload of the paper's scalability experiments (Sec. 8.3). The
// result's MinSeps map is filled; no full MVDs are expanded.
func (s *Session) MineMinSeps(ctx context.Context, opts ...Option) (*MVDResult, error) {
	if err := s.checkArity("separators"); err != nil {
		return nil, err
	}
	cfg := s.config(opts)
	ctx, cancel := cfg.mineContext(ctx)
	defer cancel()
	m := s.miner(cfg, ctx)
	res := m.MineMinSepsAll()
	s.lastTrace.Store(m.Trace())
	return res, res.Err
}

// MineSchemes runs both phases and returns the non-extendable acyclic
// ε-schemas synthesized from maximal compatible MVD sets, along with the
// phase-1 result. Schemes arrive in enumeration order; use AnalyzeAll to
// rank them by savings and spurious-tuple rate, or SchemeSeq to consume
// them as they are synthesized.
func (s *Session) MineSchemes(ctx context.Context, opts ...Option) ([]*Scheme, *MVDResult, error) {
	if err := s.checkArity("schemes"); err != nil {
		return nil, nil, err
	}
	cfg := s.config(opts)
	ctx, cancel := cfg.mineContext(ctx)
	defer cancel()
	m := s.miner(cfg, ctx)
	schemes, res := m.MineSchemes(cfg.maxSchemes)
	s.lastTrace.Store(m.Trace())
	return schemes, res, res.Err
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
		if err := s.checkArity("schemes"); err != nil {
			yield(nil, err)
			return
		}
		cfg := s.config(opts)
		ctx, cancel := cfg.mineContext(ctx)
		defer cancel()
		m := s.miner(cfg, ctx)
		defer func() { s.lastTrace.Store(m.Trace()) }()
		res := m.MineMVDs()
		if res.Err != nil {
			yield(nil, res.Err)
			return
		}
		count := 0
		broke := false
		m.EnumerateSchemes(res.MVDs, func(sc *Scheme) bool {
			if !yield(sc, nil) {
				broke = true
				return false
			}
			count++
			return cfg.maxSchemes <= 0 || count < cfg.maxSchemes
		})
		if err := m.Err(); err != nil && !broke {
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
// relation. It counts over the partitions of sch's bags and separators in
// the session's PLI cache, so ranking many schemes never re-groups the
// relation, and the cache's budgets (WithMemoryBudget, WithSpillDir)
// change its cost, never the metrics. Phase 1 counts the entropy of a
// chain leaf without storing its partition, and most bags are chain
// leaves, so the first ranking after a cold mine builds most bag
// partitions; later rankings find them cached.
func (s *Session) Analyze(sch Schema) (Metrics, error) {
	return decompose.Analyze(s.oracle, sch)
}

// AnalyzeAll is Analyze over a batch of schemas, ranked on WithWorkers
// goroutines (GOMAXPROCS by default) that each take the next schema.
// Metrics and errors are indexed like schemas: a schema Analyze rejects
// has zero Metrics and its error at its index. Metrics are exact counts,
// so they are the same at any fan-out.
func (s *Session) AnalyzeAll(schemas []Schema, opts ...Option) ([]Metrics, []error) {
	return decompose.AnalyzeAll(s.oracle, schemas, s.config(opts).fanout())
}

// Decompose projects the session's relation onto every relation schema of
// sch, from the same cached partitions Analyze counts over.
func (s *Session) Decompose(sch Schema) (*Decomposition, error) {
	return decompose.Decompose(s.oracle, sch)
}
