// Package dist is the distributed mining tier: a coordinator that shards
// the attribute-pair loop of phase 1 (the part Kenig et al. report
// dominating wall time) across N maimond workers over HTTP and reduces
// their per-pair outcomes back to exactly what a single-node mine
// produces.
//
// The decomposition follows the paper's structure. Phase 1 is
// embarrassingly parallel over attribute pairs, so pairs are hashed to
// numShards = shardsPerWorker × len(Workers) shards with the same fmix64
// policy the PLI and entropy caches stripe by (core.ShardOfPair /
// internal/stripe); each shard travels as one POST /v1/shards request
// carrying only (dataset, shard, numShards, ε) — both sides derive the
// pair list. Workers answer with per-pair outcomes (locally-deduped MVDs
// in discovery order, wire.PairResult); the coordinator puts all shards'
// outcomes back in canonical pair order and merges them with
// core.MergePairs — the merge the single-node pipeline runs — so a
// distributed mine is byte-identical to a local one. Phase 2 (ASMiner) is
// cheap and stays central, run by the caller over the merged Mε.
//
// Scheduling: each mine puts its shards on one queue, and every worker
// drains it through lanesPerWorker lanes — goroutines that take a shard,
// call the worker and take the next — so a shard is sent once, and a fast
// worker simply takes more shards. A retriable failure (network error,
// 5xx, truncated or mismatched result) puts the shard back on the queue
// after exponential backoff, up to maxAttempts, and marks the worker
// unhealthy. HTTP 4xx answers (bad request, unknown dataset,
// dataset-shape mismatch) are permanent and fail the mine with a clear
// error. Worker health is also probed via /v1/readyz: an unhealthy
// worker's lanes stop taking shards while another worker is healthy, so
// a retry lands elsewhere, and abortAfterProbes failed probes in a row
// abort the RPCs in flight to that worker, so a hung worker's shards
// return to the queue. The coordinator does not bound concurrent mines:
// the caller's job pool (service.Manager runs at most -workers jobs, each
// at most one mine) is the one admission control.
package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// lanesPerWorker is how many shard RPCs one mine keeps in flight on each
// worker. On bench fleet_2w (coordinator and two workers sharing a 2-core
// VM, seed 7, 5 alternating runs each) the median wall_s was 0.3326 s at
// 1 lane, 0.3266 s at 2 and 0.3271 s at 4, a tie within the runs'
// spread. 2 is kept: it was the fastest of the three, and it does not
// exceed the shard slots of a worker there (maimond -workers 2). A lane
// beyond a worker's slots only parks its shard in that worker's
// semaphore, where at the tail of a mine it waits while another worker
// idles.
const lanesPerWorker = 2

// abortAfterProbes is how many failed /v1/readyz probes in a row abort the
// RPCs in flight to a worker. One slow probe of a loaded but live worker
// (a GC pause, a starved CPU) only sidelines it; a worker that misses
// this many is taken for hung, and its shards go back on the queue.
const abortAfterProbes = 3

// baseBackoff and maxBackoff shape the exponential backoff before a
// failed shard rejoins the queue: baseBackoff × 2^(attempt-1), capped at
// maxBackoff.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// requestTimeout bounds one shard RPC (the mine-level context still
// applies). It is the backstop for a worker that answers probes but never
// answers a shard.
const requestTimeout = 10 * time.Minute

// shardsPerWorker scales the shard count: numShards = shardsPerWorker ×
// len(Workers). More shards than workers keeps every worker busy until
// the end of the mine and bounds the work lost to one failed shard.
const shardsPerWorker = 4

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
	// ProbeInterval is the /v1/readyz health-probe period (default 5s;
	// negative disables active probing — marking on RPC failure and
	// success still applies).
	ProbeInterval time.Duration
	// Registry receives the maimond_shard_* and maimond_worker_* series;
	// nil uses a private registry (metrics still maintained, unexported).
	Registry *obs.Registry
	// Logger receives dispatch, retry and health events; nil discards.
	Logger *slog.Logger
	// Sleep is the backoff sleeper — a test seam; nil sleeps on a timer
	// honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error

	// shardsPerWorker overrides the constant of that name when positive —
	// a test seam for one-, two-, three- and eight-shard fleets.
	shardsPerWorker int
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Workers) == 0 {
		return c, errors.New("dist: need at least one worker URL")
	}
	c.Workers = append([]string(nil), c.Workers...) // the caller's slice stays untrimmed
	for i, u := range c.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || !strings.Contains(u, "://") {
			return c, fmt.Errorf("dist: worker %d: %q is not a base URL", i, c.Workers[i])
		}
		c.Workers[i] = u
	}
	if c.shardsPerWorker <= 0 {
		c.shardsPerWorker = shardsPerWorker
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
	// downs counts the times w was marked unhealthy. A successful RPC
	// restores w only if no failure was recorded while it ran.
	downs atomic.Int64
	// failedProbes counts failed probes in a row; only the prober uses it.
	failedProbes int

	// abort is the context every shard RPC to the worker also ends with;
	// abortInflight cancels it and installs a fresh one.
	mu     sync.Mutex
	abort  context.Context
	cancel context.CancelFunc

	dispatches *obs.Counter
	retries    *obs.Counter
	failures   *obs.Counter
	latency    *obs.Histogram
}

// aborted returns the context a new RPC to w ends with.
func (w *worker) aborted() context.Context {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abort
}

// abortInflight cancels every RPC in flight to w; later RPCs are unaffected.
func (w *worker) abortInflight() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancel != nil {
		w.cancel()
	}
	w.abort, w.cancel = context.WithCancel(context.Background())
}

// Coordinator shards distributed mines across a fixed worker fleet. Safe
// for concurrent use; Close stops the health prober.
type Coordinator struct {
	cfg     Config
	client  *http.Client // shard RPCs and health probes
	workers []*worker
	// maxAttempts bounds how many times one shard is dispatched before
	// the mine fails: 2 × len(workers), at least 4. Every retriable
	// failure marks its worker unhealthy, and an unhealthy worker's
	// lanes stop taking shards while another worker is healthy, so a
	// single failing worker does not exhaust the budget.
	maxAttempts int
	numShards   int
	log         *slog.Logger
	met         *metrics

	hmu     sync.Mutex
	healthC chan struct{} // closed and replaced whenever a worker's health flips

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
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		maxAttempts: max(4, 2*len(cfg.Workers)),
		numShards:   cfg.shardsPerWorker * len(cfg.Workers),
		log:         cfg.Logger,
		healthC:     make(chan struct{}),
		stopProbe:   make(chan struct{}),
		probeDone:   make(chan struct{}),
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
		w.abortInflight()
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
// the next success. abortAfterProbes failures in a row also abort the
// worker's in-flight RPCs, which is how a mine gets past a hung worker:
// its shards go back on the queue for the healthy workers' lanes.
// Between probes, a failed shard RPC marks the worker unhealthy (the
// prober restores it).
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
			if healthy {
				w.failedProbes = 0
			} else if w.failedProbes++; w.failedProbes >= abortAfterProbes {
				w.abortInflight()
			}
			if c.setHealthy(w, healthy) {
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
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// setHealthy records w's health and reports whether it flipped; a flip
// wakes every lane waiting in healthChange.
func (c *Coordinator) setHealthy(w *worker, healthy bool) bool {
	if !healthy {
		w.downs.Add(1)
	}
	if w.healthy.Swap(healthy) == healthy {
		return false
	}
	c.hmu.Lock()
	close(c.healthC)
	c.healthC = make(chan struct{})
	c.hmu.Unlock()
	return true
}

// healthChange returns a channel closed at the next health flip of any
// worker. Take it before reading health, so no flip can fall between.
func (c *Coordinator) healthChange() <-chan struct{} {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	return c.healthC
}

// sidelined reports whether w's lanes should leave the queue alone: w is
// unhealthy and some other worker is healthy. With every worker marked
// unhealthy all lanes keep taking shards — trying a probably-dead worker
// beats stalling, and a false "all dead" (e.g. a partitioned prober)
// self-corrects on the first success.
func (c *Coordinator) sidelined(w *worker) bool {
	if w.healthy.Load() {
		return false
	}
	for _, o := range c.workers {
		if o.healthy.Load() {
			return true
		}
	}
	return false
}

// backoff returns the exponential delay before retry number attempt
// (attempt ≥ 1): baseBackoff × 2^(attempt-1), capped at maxBackoff.
func backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}
