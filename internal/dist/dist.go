// Package dist is the distributed mining tier: a coordinator that shards
// the attribute-pair loop of phase 1 (the part Kenig et al. report
// dominating wall time) across N maimond workers over HTTP and reduces
// their per-pair outcomes back to exactly what a single-node mine
// produces.
//
// The decomposition follows the paper's structure. Phase 1 is
// embarrassingly parallel over attribute pairs, so pairs are hashed to
// numShards = ShardsPerWorker × len(Workers) shards with the same fmix64
// policy the PLI and entropy caches stripe by (core.ShardOfPair /
// internal/stripe); each shard travels as one POST /v1/shards request
// carrying only (dataset, shard, numShards, ε) — both sides derive the
// pair list. Workers answer with per-pair outcomes (locally-deduped MVDs
// in discovery order, wire.PairResult); the coordinator merges all
// shards' outcomes in canonical pair order with a global fingerprint
// dedup and a final canonical sort — the identical merge the single-node
// parallel pipeline performs — so a distributed mine is byte-identical
// to a local one. Phase 2 (ASMiner) is cheap and stays central, run by
// the caller over the merged Mε.
//
// Failure handling: each shard is dispatched with bounded retries under
// exponential backoff, rotating to the next worker on every attempt;
// straggler shards are hedged (duplicated to a second worker) once the
// run has enough completed-shard latency samples to estimate a quantile;
// worker health is probed via the existing /v1/readyz and failing
// workers are skipped while unhealthy. HTTP 4xx answers (bad request,
// unknown dataset, dataset-shape mismatch) are permanent and fail the
// mine with a clear error; network errors, 5xx, and truncated or
// mismatched shard results are retriable. Admission control bounds
// concurrent mines (ErrBusy, never queued) and per-tenant in-flight
// shard budgets isolate tenants from each other's fan-out.
package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrBusy rejects a mine when the coordinator is at its admission bound.
// Deliberately not queued: the caller (or its load balancer) decides
// whether to wait, shed, or go elsewhere.
var ErrBusy = errors.New("dist: coordinator at capacity (admission control)")

// permanentError marks a shard failure that no retry can fix — the
// worker understood the request and rejected it (unknown dataset,
// mismatched dataset shape, malformed shard range).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Config sizes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// Workers are the base URLs of the maimond workers shards are
	// dispatched to (e.g. "http://10.0.0.2:8080"). At least one.
	Workers []string
	// Client is the HTTP client for shard RPCs and health probes;
	// nil uses a dedicated client with sane connection reuse.
	Client *http.Client
	// ShardsPerWorker scales the shard count: numShards =
	// ShardsPerWorker × len(Workers) (default 4). More shards than
	// workers keeps every worker busy until the end of the mine and
	// bounds the work lost to one failed or hedged shard.
	ShardsPerWorker int
	// MaxAttempts bounds how many times one shard is dispatched before
	// the mine fails (default 2 × len(Workers), at least 4). Attempts
	// rotate across workers, so a single dead worker never exhausts the
	// budget.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between a
	// shard's attempts: BaseBackoff × 2^(attempt-1), capped at
	// MaxBackoff (defaults 100ms and 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeQuantile is the completed-shard latency quantile after which
	// a still-running shard is re-dispatched to a second worker, first
	// answer wins (default 0.9; ≤ 0 disables hedging; New rejects a
	// quantile above 1 or NaN).
	HedgeQuantile float64
	// HedgeMinSamples is how many shards must have completed before the
	// quantile is trusted (default 3).
	HedgeMinSamples int
	// HedgeMinDelay floors the hedge delay so microbenchmark-fast shards
	// don't hedge on noise (default 25ms).
	HedgeMinDelay time.Duration
	// RequestTimeout bounds one shard RPC (default 10m; the mine-level
	// context still applies).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrent shard RPCs across all mines
	// (default 4 × len(Workers)); excess dispatches wait.
	MaxInflight int
	// TenantInflight bounds one tenant's concurrent shard RPCs — budget
	// isolation: a tenant saturating its budget queues behind itself,
	// not in front of other tenants (default MaxInflight).
	TenantInflight int
	// MaxMines bounds concurrent distributed mines; a mine beyond it is
	// rejected with ErrBusy rather than queued (default 8).
	MaxMines int
	// ProbeInterval is the /v1/readyz health-probe period (default 5s;
	// negative disables active probing — passive marking on RPC failure
	// still applies).
	ProbeInterval time.Duration
	// Registry receives the maimond_shard_* and maimond_worker_* series;
	// nil uses a private registry (metrics still maintained, unexported).
	Registry *obs.Registry
	// Logger receives dispatch, retry, hedge and health events; nil
	// discards.
	Logger *slog.Logger
	// Sleep is the backoff sleeper — a test seam; nil sleeps on a timer
	// honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Workers) == 0 {
		return c, errors.New("dist: need at least one worker URL")
	}
	for i, u := range c.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || !strings.Contains(u, "://") {
			return c, fmt.Errorf("dist: worker %d: %q is not a base URL", i, c.Workers[i])
		}
		c.Workers[i] = u
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2 * len(c.Workers)
		if c.MaxAttempts < 4 {
			c.MaxAttempts = 4
		}
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.HedgeQuantile > 1 || math.IsNaN(c.HedgeQuantile) {
		return c, fmt.Errorf("dist: hedge quantile %v is not ≤ 1", c.HedgeQuantile)
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 3
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 25 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Minute
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * len(c.Workers)
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = c.MaxInflight
	}
	if c.MaxMines <= 0 {
		c.MaxMines = 8
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is the coordinator's view of one maimond instance.
type worker struct {
	url     string
	healthy atomic.Bool

	dispatches *obs.Counter
	retries    *obs.Counter
	failures   *obs.Counter
	latency    *obs.Histogram
}

// Coordinator shards distributed mines across a fixed worker fleet. Safe
// for concurrent use; Close stops the health prober.
type Coordinator struct {
	cfg       Config
	workers   []*worker
	numShards int
	log       *slog.Logger
	met       *metrics

	mines    chan struct{} // admission tokens (non-blocking acquire)
	inflight chan struct{} // global shard-RPC tokens (blocking acquire)

	tmu     sync.Mutex
	tenants map[string]chan struct{} // per-tenant shard-RPC tokens

	stopProbe chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// New builds a coordinator over the given worker fleet and starts its
// health prober. Call Close when done.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		numShards: cfg.ShardsPerWorker * len(cfg.Workers),
		log:       cfg.Logger,
		mines:     make(chan struct{}, cfg.MaxMines),
		inflight:  make(chan struct{}, cfg.MaxInflight),
		tenants:   make(map[string]chan struct{}),
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	c.met = newMetrics(cfg.Registry)
	for _, u := range cfg.Workers {
		w := &worker{
			url:        u,
			dispatches: c.met.workerDispatches(u),
			retries:    c.met.workerRetries(u),
			failures:   c.met.workerFailures(u),
			latency:    c.met.workerLatency(u),
		}
		w.healthy.Store(true) // optimistic until a probe or RPC says otherwise
		c.met.bindWorkerHealth(u, &w.healthy)
		c.workers = append(c.workers, w)
	}
	if cfg.ProbeInterval > 0 {
		go c.probe()
	} else {
		close(c.probeDone)
	}
	return c, nil
}

// NumShards returns the shard count a mine fans out to.
func (c *Coordinator) NumShards() int { return c.numShards }

// WorkerURLs returns the configured worker base URLs.
func (c *Coordinator) WorkerURLs() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.url
	}
	return out
}

// Close stops the health prober. In-flight mines finish normally.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopProbe)
	})
	<-c.probeDone
}

// probe is the active health loop: every ProbeInterval each worker's
// /v1/readyz is checked; a worker flips unhealthy on failure and back on
// the next success. Between probes, a network error on a shard RPC marks
// the worker unhealthy passively (the prober restores it).
func (c *Coordinator) probe() {
	defer close(c.probeDone)
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-tick.C:
		}
		for _, w := range c.workers {
			healthy := c.probeOne(w)
			if was := w.healthy.Swap(healthy); was != healthy {
				if healthy {
					c.log.Info("worker healthy again", "worker", w.url)
				} else {
					c.log.Warn("worker unhealthy", "worker", w.url)
				}
			}
		}
	}
}

func (c *Coordinator) probeOne(w *worker) bool {
	timeout := c.cfg.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pickWorker selects the target of a shard's attempt: the primary worker
// is shard-determined (round robin keeps the load even), each retry or
// hedge rotates one further, and unhealthy workers are skipped. With
// every worker marked unhealthy the rotation target is returned anyway —
// trying a probably-dead worker beats stalling, and a false "all dead"
// (e.g. a partitioned prober) self-corrects on the first success.
func (c *Coordinator) pickWorker(shard, attempt int) *worker {
	n := len(c.workers)
	start := (shard + attempt) % n
	for i := 0; i < n; i++ {
		if w := c.workers[(start+i)%n]; w.healthy.Load() {
			return w
		}
	}
	return c.workers[start]
}

// tenantSlots returns (lazily creating) the per-tenant token channel.
// Tenant channels are never freed: the map is bounded by the number of
// distinct tenants ever seen, a few dozen channel headers in practice.
func (c *Coordinator) tenantSlots(tenant string) chan struct{} {
	if tenant == "" {
		tenant = "default"
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	ch, ok := c.tenants[tenant]
	if !ok {
		ch = make(chan struct{}, c.cfg.TenantInflight)
		c.tenants[tenant] = ch
	}
	return ch
}

// acquire takes one tenant token then one global token, honoring ctx.
// Tenant first: a tenant over its budget waits without holding a global
// slot other tenants could use.
func (c *Coordinator) acquire(ctx context.Context, tenant string) (release func(), err error) {
	tch := c.tenantSlots(tenant)
	select {
	case tch <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case c.inflight <- struct{}{}:
	case <-ctx.Done():
		<-tch
		return nil, ctx.Err()
	}
	c.met.inflight.Inc()
	return func() {
		c.met.inflight.Dec()
		<-c.inflight
		<-tch
	}, nil
}

// backoff returns the exponential delay before retry number attempt
// (attempt ≥ 1): BaseBackoff × 2^(attempt-1), capped at MaxBackoff.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.cfg.MaxBackoff {
			return c.cfg.MaxBackoff
		}
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	return d
}
