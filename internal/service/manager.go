package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/wire"
)

// queueDepth bounds how many jobs may wait. A full queue rejects submits
// (backpressure) instead of growing without bound.
const queueDepth = 256

// maxJobs bounds how many job records the manager retains. Past the
// bound, the oldest terminal jobs (and their results) are evicted on
// submit — a resident daemon must not accumulate every result it ever
// produced. Live (queued/running) jobs are never evicted. The retained
// records are also the result cache, so this bounds it too.
const maxJobs = 1024

// cacheKey identifies a mining outcome per session incarnation: same
// session (and thus the same underlying data), same threshold, same
// options ⇒ same result (mining is deterministic). Keying on the session
// id rather than the dataset name means a dataset removed and
// re-registered under the same name — a new session over possibly
// different data — can never be served a stale result. Timeout is
// deliberately not part of the key — only complete (non-interrupted) runs
// are served again, and a complete result is valid under any timeout.
// Workers is excluded for the same reason: the parallel pipeline is
// deterministic, so a result mined at any fan-out answers a request at
// any other.
type cacheKey struct {
	session    int64
	epsilon    float64
	mode       string
	maxSchemes int
}

func keyOf(session int64, req wire.JobRequest) cacheKey {
	k := cacheKey{session: session, epsilon: req.Epsilon, mode: req.Mode, maxSchemes: req.MaxSchemes}
	if req.Mode == wire.ModeMVDs {
		k.maxSchemes = 0 // phase 1 never reads it
	}
	return k
}

// Config sizes the manager.
type Config struct {
	// Workers is the size of the mining worker pool — how many jobs run
	// concurrently; ≤ 0 means runtime.GOMAXPROCS(0). Mining is CPU-bound,
	// so more workers than cores buys nothing.
	Workers int
	// MineWorkers is the default per-job parallel fan-out (the pipeline's
	// WithWorkers) for jobs that don't set workers themselves; ≤ 0 means
	// 1, i.e. each job mines serially and parallelism comes from running
	// Workers jobs side by side. Raise it on machines with more cores
	// than concurrent jobs; total CPU demand is roughly
	// Workers × MineWorkers.
	MineWorkers int
	// Telemetry receives the manager's metrics and structured logs (job
	// lifecycle, queue depth, result-cache and session counters). nil
	// gets a private bundle: metrics kept and served on /metrics, logs
	// discarded.
	Telemetry *Telemetry
	// Coordinator, when non-nil, switches phase 1 of every job to
	// distributed execution: the coordinator shards the attribute-pair
	// space across its worker fleet and merges the results
	// (byte-identical to local mining), and phase 2 stays local. Each
	// job runs at most one distributed mine, so Workers bounds them too;
	// the coordinator has no admission gate of its own. The manager does
	// not own the coordinator's lifecycle — the embedder (cmd/maimond)
	// closes it.
	Coordinator *dist.Coordinator
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MineWorkers <= 0 {
		c.MineWorkers = 1
	}
	if c.Telemetry == nil {
		c.Telemetry = NewTelemetry(nil, nil)
	}
	return c
}

// ErrQueueFull rejects a submit when the job queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed rejects operations on a closed manager.
var ErrClosed = errors.New("service: manager closed")

// Manager owns the job lifecycle: it validates submissions, serves a
// repeated job from the result of a retained one, queues the rest onto a
// bounded worker pool, and runs each job under its own cancellable
// context (child of the manager's, so Close cancels everything in
// flight).
type Manager struct {
	reg *Registry
	cfg Config
	tel *Telemetry

	// coord, when non-nil, runs every job's phase 1 distributed;
	// shardSem bounds concurrent inbound shard mines (this node acting
	// as a worker) to the same budget as the job pool.
	coord    *dist.Coordinator
	shardSem chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu      sync.Mutex
	maxJobs int // retention bound; the constant maxJobs outside tests
	jobs    map[string]*Job
	order   []*Job // submission order, for listing and eviction
	// served is the result cache: for each key, the newest retained job
	// that finished done and not interrupted under it. Results are served
	// by pointer and must be treated as immutable by all readers.
	served map[cacheKey]*Job
	seq    int64
	closed bool

	hits   atomic.Int64 // Submit's lookups served from a retained job
	misses atomic.Int64 // uncached jobs that started mining
}

// NewManager starts a manager with cfg.Workers mining workers over the
// given registry. Call Close to stop it.
func NewManager(reg *Registry, cfg Config) *Manager {
	return newManager(reg, cfg, queueDepth, maxJobs)
}

// newManager is NewManager with the queue depth and the job retention
// bound given.
func newManager(reg *Registry, cfg Config, depth, retain int) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		reg:        reg,
		cfg:        cfg,
		tel:        cfg.Telemetry,
		coord:      cfg.Coordinator,
		shardSem:   make(chan struct{}, cfg.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, depth),
		maxJobs:    retain,
		jobs:       make(map[string]*Job),
		served:     make(map[cacheKey]*Job),
	}
	m.tel.bindManager(m)
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Registry returns the dataset registry the manager mines from.
func (m *Manager) Registry() *Registry { return m.reg }

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Telemetry returns the manager's telemetry bundle.
func (m *Manager) Telemetry() *Telemetry { return m.tel }

// Ready reports whether the manager is accepting submissions — the
// readiness the /readyz endpoint serves. It flips false permanently at
// Close.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// normalize validates req and fills in manager defaults.
func (m *Manager) normalize(req wire.JobRequest) (wire.JobRequest, error) {
	switch req.Mode {
	case "":
		req.Mode = wire.ModeSchemes
	case wire.ModeSchemes, wire.ModeMVDs:
	default:
		return req, fmt.Errorf("service: unknown mode %q (want %q or %q)", req.Mode, wire.ModeSchemes, wire.ModeMVDs)
	}
	if req.Epsilon < 0 {
		return req, fmt.Errorf("service: epsilon must be ≥ 0, got %v", req.Epsilon)
	}
	if req.TimeoutMS < 0 {
		return req, fmt.Errorf("service: timeout_ms must be ≥ 0, got %d", req.TimeoutMS)
	}
	switch {
	case req.MaxSchemes == 0:
		// An uncapped enumeration can be exponential; a resident service
		// must not let one request hold a worker forever.
		req.MaxSchemes = maimon.DefaultMaxSchemes
	case req.MaxSchemes < 0:
		req.MaxSchemes = 0 // unlimited, the core encoding
	}
	if req.Workers < 0 {
		return req, fmt.Errorf("service: workers must be ≥ 0, got %d", req.Workers)
	}
	req.Workers = m.mineWorkers(req.Workers)
	sess, ok := m.reg.Get(req.Dataset)
	if !ok {
		return req, fmt.Errorf("service: unknown dataset %q", req.Dataset)
	}
	if cols := sess.Relation().NumCols(); cols < 3 {
		return req, fmt.Errorf("service: dataset %q has %d attributes; mining needs at least 3", req.Dataset, cols)
	}
	return req, nil
}

// mineWorkers resolves the fan-out of one job or shard mine: ≤ 0 takes
// Config.MineWorkers, and none is wider than GOMAXPROCS — a wider fan-out
// than cores buys nothing.
func (m *Manager) mineWorkers(workers int) int {
	if workers <= 0 {
		workers = m.cfg.MineWorkers
	}
	return min(workers, runtime.GOMAXPROCS(0))
}

// Submit validates and enqueues a mining job. A result-cache hit returns
// a job that is already done, carrying the served job's result; the hit
// then becomes the entry, so a result that keeps being asked for stays
// retained.
func (m *Manager) Submit(req wire.JobRequest) (*Job, error) {
	req, err := m.normalize(req)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.seq++
	job := newJob(fmt.Sprintf("j-%d", m.seq), req, m.baseCtx)
	_, sessionID, _ := m.reg.lookup(req.Dataset)
	key := keyOf(sessionID, req)
	if hit := m.served[key]; hit != nil {
		m.hits.Add(1)
		res, _ := hit.Result()
		job.cacheHit = true
		job.finish(wire.StateDone, res, "")
		job.key = key
		m.served[key] = job
		m.register(job)
		m.tel.jobSubmitted(job)
		return job, nil
	}
	select {
	case m.queue <- job:
		m.register(job)
		m.tel.jobSubmitted(job)
		return job, nil
	default:
		return nil, ErrQueueFull
	}
}

// register records a job and evicts the oldest terminal jobs beyond the
// retention bound, each with its result-cache entry. Caller holds m.mu.
func (m *Manager) register(job *Job) {
	m.jobs[job.id] = job
	m.order = append(m.order, job)
	for i := 0; len(m.jobs) > m.maxJobs && i < len(m.order); {
		old := m.order[i]
		if !old.State().Terminal() {
			i++
			continue
		}
		if m.served[old.key] == old {
			delete(m.served, old.key)
		}
		delete(m.jobs, old.id)
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

// Job returns the job with the given id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all retained jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.order...)
}

// Cancel requests cancellation of a job. A queued job flips to cancelled
// immediately; a running job has its context cancelled and reaches
// cancelled as soon as the miner observes it (one candidate evaluation).
// The returned state is the job's state right after the request;
// cancelling an already-terminal job is a no-op reporting that state.
func (m *Manager) Cancel(id string) (wire.State, error) {
	job, ok := m.Job(id)
	if !ok {
		return "", fmt.Errorf("service: unknown job %q", id)
	}
	if job.cancelQueued() {
		m.tel.jobCancelledQueued(job)
		return wire.StateCancelled, nil
	}
	// Running or already terminal: cancelling the context is a no-op for
	// terminal jobs (finish keeps the first terminal state).
	job.cancel()
	return job.State(), nil
}

// RemoveDataset unregisters a dataset. Running jobs keep their session
// reference and finish normally. Its results need no invalidation: they
// are keyed by an incarnation id no later request carries, and they
// leave with their jobs.
func (m *Manager) RemoveDataset(name string) bool {
	ok := m.reg.remove(name)
	if ok {
		m.tel.datasetRemoved(name)
	}
	return ok
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.run(job)
	}
}

// run executes one job on the calling worker goroutine.
func (m *Manager) run(job *Job) {
	if job.ctx.Err() != nil { // cancelled (or manager closed) while queued
		// finish reports false when cancelQueued already finished the job —
		// that path emitted the cancelled event, so don't count it twice.
		if job.finish(wire.StateCancelled, nil, "cancelled before start") {
			m.tel.jobCancelledQueued(job)
		}
		return
	}
	if !job.markRunning() {
		return // cancelQueued already finished it (and was counted there)
	}
	m.tel.jobStarted(job)
	sess, sessionID, ok := m.reg.lookup(job.req.Dataset)
	if !ok {
		msg := fmt.Sprintf("dataset %q was removed before the job ran", job.req.Dataset)
		job.finish(wire.StateFailed, nil, msg)
		m.tel.jobFinished(job, wire.StateFailed, 0, msg)
		return
	}
	// Expose the session to status readers while the job runs: GET
	// /v1/jobs/{id} reports the live memory state (BytesLive, Evictions)
	// of the cache this job mines against. finish() freezes the snapshot
	// and drops the reference.
	job.sess.Store(sess)
	ctx := job.ctx
	if job.req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	m.misses.Add(1)
	result, err := m.mine(ctx, sess, job)
	result.ElapsedMS = time.Since(start).Milliseconds()

	switch {
	case job.ctx.Err() != nil && errors.Is(job.ctx.Err(), context.Canceled):
		// Explicit DELETE (or manager shutdown), regardless of how the
		// miner surfaced it: the job is cancelled, not done.
		job.finish(wire.StateCancelled, result, "cancelled")
		m.tel.jobFinished(job, wire.StateCancelled, time.Since(start), "cancelled")
	case err != nil && !errors.Is(err, core.ErrInterrupted):
		job.finish(wire.StateFailed, nil, err.Error())
		m.tel.jobFinished(job, wire.StateFailed, time.Since(start), err.Error())
	default:
		result.Interrupted = errors.Is(err, core.ErrInterrupted)
		// Finishing under m.mu indexes the job before its Done closes and
		// before eviction can see it terminal. It is keyed by the session
		// it mined: a job finishing after its dataset was removed gets an
		// entry no later request reaches, which leaves with the job.
		m.mu.Lock()
		job.finish(wire.StateDone, result, "")
		if !result.Interrupted {
			job.key = keyOf(sessionID, job.req)
			m.served[job.key] = job
		}
		m.mu.Unlock()
		m.tel.jobFinished(job, wire.StateDone, time.Since(start), "")
	}
}

// mine runs the requested phases through the dataset's shared session —
// every entropy and PLI partition an earlier job computed is already warm
// — with the job's observe sink receiving the live event stream. The
// returned error is nil, core.ErrInterrupted (partial results after a
// deadline), or a cancellation error.
//
// With a coordinator, phase 1 runs distributed (mineDistributed) and
// phase 2 runs here on the merged Mε, under the same options — the job's
// fan-out included — as a local mine.
func (m *Manager) mine(ctx context.Context, sess *maimon.Session, job *Job) (*wire.JobResult, error) {
	req := job.req
	// Each job owns its trace (concurrent jobs on one session must not
	// share); the stage breakdown feeds the per-stage metric counters
	// once the mine returns, partial results included.
	var tr maimon.MineTrace
	defer m.tel.observeTrace(&tr)
	opts := []maimon.Option{
		maimon.WithEpsilon(req.Epsilon),
		maimon.WithWorkers(req.Workers),
		maimon.WithProgress(job.observe),
		maimon.WithTrace(&tr),
		maimon.WithMaxSchemes(req.MaxSchemes),
	}

	var schemes []*maimon.Scheme
	var res *core.MVDResult
	var err error
	switch {
	case m.coord != nil:
		res, err = m.mineDistributed(ctx, sess, job)
		if res != nil && err == nil && req.Mode == wire.ModeSchemes {
			job.setPhase("schemes")
			schemes, err = sess.SchemesFromMVDs(ctx, res.MVDs, opts...)
		}
	case req.Mode == wire.ModeMVDs:
		res, err = sess.MineMVDs(ctx, opts...)
	default:
		schemes, res, err = sess.MineSchemes(ctx, opts...)
	}

	out := &wire.JobResult{Dataset: req.Dataset, Epsilon: req.Epsilon, Mode: req.Mode}
	if res == nil {
		// Possible despite normalize(): the dataset was swapped for an
		// unminable one (removed and re-registered under the same name)
		// between submit and run, or the fleet produced no result.
		return out, err
	}
	names := sess.Relation().Names()
	out.NumMinSeps = res.NumMinSeps()
	out.MVDs = make([]wire.MVDItem, len(res.MVDs))
	for i, phi := range res.MVDs {
		out.MVDs[i] = wire.MVDItem{MVD: phi.Format(names), J: sess.J(phi)}
	}
	if req.Mode == wire.ModeSchemes {
		var rankErr error
		out.Schemes, rankErr = m.rankSchemes(ctx, sess, job, schemes)
		if err == nil {
			err = rankErr
		}
	}
	return out, err
}

// rankSchemes attaches the decomposition metrics to every mined scheme,
// ranking them at the job's fan-out until ctx is done. They are
// best-effort: a scheme whose metrics cannot be computed still counts as
// mined — it keeps its entry, without S and E — and the failure is logged
// against the job. A scheme the stop left unranked is not logged; the
// returned error says the ranking stopped, as mine reports it: ctx's
// deadline as core.ErrInterrupted, a cancellation as itself.
func (m *Manager) rankSchemes(ctx context.Context, sess *maimon.Session, job *Job, schemes []*maimon.Scheme) ([]wire.SchemeResult, error) {
	names := sess.Relation().Names()
	schemas := make([]maimon.Schema, len(schemes))
	for i, s := range schemes {
		schemas[i] = s.Schema
	}
	mets, errs := sess.AnalyzeAll(ctx, schemas, maimon.WithWorkers(job.req.Workers))
	stopped := ctx.Err()
	var stopErr error
	var out []wire.SchemeResult
	for i, s := range schemes {
		sr := wire.SchemeResult{
			Schema:    s.Schema.Format(names),
			J:         s.J,
			Relations: s.M(),
			Width:     s.Schema.Width(),
		}
		switch {
		case errs[i] == nil:
			sr.SavingsPct = mets[i].SavingsPct
			sr.SpuriousPct = mets[i].SpuriousPct
		case errs[i] == stopped:
			stopErr = stopped
		default:
			m.tel.Logger().Warn("scheme metrics failed", "job", job.id, "schema", sr.Schema, "error", errs[i])
		}
		out = append(out, sr)
	}
	if stopErr == context.DeadlineExceeded {
		stopErr = core.ErrInterrupted
	}
	return out, stopErr
}

// mineDistributed is phase 1 of mine() fanned out through the
// coordinator: the worker fleet mines the attribute-pair shards and the
// coordinator merges them into the same MVDResult a local mine produces.
// Phase 2 (scheme synthesis — cheap) then runs locally against this
// node's session. The job's Dist status block tracks the shard fan-out
// live; the local session is only used for J evaluation, Analyze, and
// phase 2, all of which are deterministic functions of the merged Mε.
func (m *Manager) mineDistributed(ctx context.Context, sess *maimon.Session, job *Job) (*core.MVDResult, error) {
	req := job.req
	r := sess.Relation()
	job.setPhase("mvds")
	res, _, err := m.coord.MineMVDs(ctx, dist.Spec{
		Dataset:      req.Dataset,
		Epsilon:      req.Epsilon,
		ShardWorkers: req.Workers,
		NumAttrs:     r.NumCols(),
		Rows:         r.NumRows(),
		OnShard: func(p dist.ShardProgress) {
			job.shardsDone.Store(int64(p.ShardsDone))
			job.shardsTotal.Store(int64(p.ShardsTotal))
			job.distRetries.Store(int64(p.Retries))
			job.pairsDone.Store(int64(p.PairsDone))
			job.pairsTotal.Store(int64(p.PairsTotal))
		},
		OnTrace: m.tel.observeTrace,
	})
	if res != nil {
		job.mvds.Store(int64(len(res.MVDs)))
	}
	return res, err
}
