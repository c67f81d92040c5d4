package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mvd"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Spec describes one distributed phase-1 mine.
type Spec struct {
	// Dataset names the dataset, registered under the same name on every
	// worker.
	Dataset string
	// Tenant scopes the mine's shard RPCs to a per-tenant in-flight
	// budget; empty means the shared "default" tenant.
	Tenant string
	// Epsilon is the approximation threshold ε ≥ 0 in bits.
	Epsilon float64
	// DisablePruning turns off pairwise-consistency pruning on the
	// workers (ablation runs only).
	DisablePruning bool
	// ShardWorkers is the worker-local goroutine fan-out per shard; 0
	// applies each worker's default.
	ShardWorkers int
	// NumAttrs and Rows are the coordinator's view of the dataset's
	// shape; workers reject a mismatch so a same-named dataset with
	// different contents fails loudly instead of merging garbage.
	NumAttrs int
	Rows     int
	// TimeoutMS bounds each shard mine worker-side. The coordinator-side
	// bound is the context handed to MineMVDs.
	TimeoutMS int64
	// OnShard, when non-nil, receives a progress snapshot after every
	// shard completion, retry and hedge (called from dispatch goroutines
	// — must be cheap and concurrency-safe).
	OnShard func(ShardProgress)
	// OnTrace, when non-nil, receives each shard's worker-side mine
	// trace as it arrives, so the coordinator can fold fleet-wide stage
	// work into its own telemetry.
	OnTrace func(*obs.MineTrace)
}

// ShardProgress is a live snapshot of a distributed mine's fan-out.
type ShardProgress struct {
	ShardsDone  int
	ShardsTotal int
	PairsDone   int
	PairsTotal  int
	Retries     int
	Hedges      int
}

// Report summarizes how a distributed mine executed — the fan-out
// accounting alongside the mining result proper.
type Report struct {
	// Shards is how many non-empty shards the mine fanned out to.
	Shards int
	// Dispatches counts shard RPCs sent (first attempts + retries +
	// hedges).
	Dispatches int
	// Retries counts attempts re-dispatched after a retriable failure.
	Retries int
	// Hedges counts straggler duplications.
	Hedges int
	// BytesMerged is the total size of the shard-result bodies merged.
	BytesMerged int64
	// Interrupted reports that at least one worker hit its shard
	// deadline, so the merged result may be partial.
	Interrupted bool
}

// shardState tracks one mine's cross-shard accounting: completed-RPC
// latencies for the hedge quantile plus the dispatch/retry/hedge tallies
// the Report and OnShard snapshots serve.
type shardState struct {
	mu         sync.Mutex
	latencies  []time.Duration
	dispatches int
	retries    int
	hedges     int
	shardsDone int
	pairsDone  int
	bytes      int64
}

func (s *shardState) dispatched() {
	s.mu.Lock()
	s.dispatches++
	s.mu.Unlock()
}

func (s *shardState) retry() {
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
}

func (s *shardState) hedge() {
	s.mu.Lock()
	s.hedges++
	s.mu.Unlock()
}

// observeLatency records one successful shard RPC: its wall time feeds
// the hedge quantile, its body size the merge accounting.
func (s *shardState) observeLatency(d time.Duration, bytes int) {
	s.mu.Lock()
	s.latencies = append(s.latencies, d)
	s.bytes += int64(bytes)
	s.mu.Unlock()
}

func (s *shardState) shardDone(pairs int) {
	s.mu.Lock()
	s.shardsDone++
	s.pairsDone += pairs
	s.mu.Unlock()
}

func (s *shardState) snapshot(total, pairsTotal int) ShardProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardProgress{
		ShardsDone:  s.shardsDone,
		ShardsTotal: total,
		PairsDone:   s.pairsDone,
		PairsTotal:  pairsTotal,
		Retries:     s.retries,
		Hedges:      s.hedges,
	}
}

// hedgeDelay returns how long to wait before hedging a shard, or 0 when
// hedging should not fire (disabled, single worker, or not enough
// completed shard RPCs to trust the quantile).
func (c *Coordinator) hedgeDelay(st *shardState) time.Duration {
	if c.cfg.HedgeQuantile <= 0 || len(c.workers) < 2 {
		return 0
	}
	st.mu.Lock()
	lats := append([]time.Duration(nil), st.latencies...)
	st.mu.Unlock()
	if len(lats) < c.cfg.HedgeMinSamples {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	d := lats[int(float64(len(lats)-1)*c.cfg.HedgeQuantile)]
	if d < c.cfg.HedgeMinDelay {
		d = c.cfg.HedgeMinDelay
	}
	return d
}

// shardPlan is one non-empty shard of the mine's pair space.
type shardPlan struct {
	shard int
	pairs [][2]int
}

// MineMVDs runs phase 1 of a mine distributed across the fleet and
// returns the merged result — byte-identical to a single-node
// (*Session).MineMVDs over the same dataset and ε — together with a
// fan-out Report.
//
// The error contract mirrors the single-node miner: ctx hitting its
// deadline merges the shards completed so far and returns them with
// res.Err == core.ErrInterrupted; ctx cancellation likewise merges and
// returns context.Canceled; a shard exhausting its attempts or failing
// permanently returns (nil, report, err). ErrBusy is returned
// immediately when the coordinator is at its MaxMines admission bound.
func (c *Coordinator) MineMVDs(ctx context.Context, spec Spec) (*core.MVDResult, *Report, error) {
	if spec.Dataset == "" {
		return nil, nil, errors.New("dist: spec needs a dataset name")
	}
	if spec.NumAttrs < 3 {
		return nil, nil, fmt.Errorf("dist: dataset %q: need at least 3 attributes, have %d", spec.Dataset, spec.NumAttrs)
	}
	select {
	case c.mines <- struct{}{}:
	default:
		c.met.admissionRejects.Inc()
		return nil, nil, ErrBusy
	}
	defer func() { <-c.mines }()
	c.met.mines.Inc()

	// Plan: every non-empty shard of the pair space. Pair lists are
	// derived locally and never shipped; the worker re-derives the same
	// list from (NumAttrs, shard, numShards).
	var plan []shardPlan
	pairsTotal := 0
	for s := 0; s < c.numShards; s++ {
		ps := core.ShardPairs(spec.NumAttrs, s, c.numShards)
		if len(ps) > 0 {
			plan = append(plan, shardPlan{shard: s, pairs: ps})
			pairsTotal += len(ps)
		}
	}

	st := &shardState{}
	notify := func() {
		if spec.OnShard != nil {
			spec.OnShard(st.snapshot(len(plan), pairsTotal))
		}
	}
	notify()

	mctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([][]core.PairMVDs, len(plan))
	interrupted := make([]bool, len(plan))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i := range plan {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, intr, err := c.mineShard(mctx, spec, st, plan[i], notify)
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			results[i] = out
			interrupted[i] = intr
			st.shardDone(len(out))
			notify()
		}(i)
	}
	wg.Wait()

	rep := &Report{Shards: len(plan)}
	st.mu.Lock()
	rep.Dispatches = st.dispatches
	rep.Retries = st.retries
	rep.Hedges = st.hedges
	rep.BytesMerged = st.bytes
	st.mu.Unlock()

	if firstErr != nil {
		// The caller's context expiring or being cancelled mid-mine
		// follows the single-node contract: merge what completed, tag the
		// result with the interrupt cause. Any other failure (permanent
		// worker rejection, attempts exhausted) fails the mine outright.
		if ctxErr := ctx.Err(); ctxErr != nil {
			res := mergeShards(spec.NumAttrs, results, interrupted, rep)
			if errors.Is(ctxErr, context.DeadlineExceeded) {
				res.Err = core.ErrInterrupted
			} else {
				res.Err = ctxErr
			}
			rep.Interrupted = true
			c.log.Warn("distributed mine interrupted",
				"dataset", spec.Dataset, "cause", ctxErr, "shards", rep.Shards)
			return res, rep, res.Err
		}
		c.met.minesFailed.Inc()
		c.log.Error("distributed mine failed", "dataset", spec.Dataset, "err", firstErr)
		return nil, rep, firstErr
	}

	res := mergeShards(spec.NumAttrs, results, interrupted, rep)
	if rep.Interrupted {
		res.Err = core.ErrInterrupted
	}
	c.log.Info("distributed mine done",
		"dataset", spec.Dataset, "epsilon", spec.Epsilon, "shards", rep.Shards,
		"dispatches", rep.Dispatches, "retries", rep.Retries, "hedges", rep.Hedges,
		"mvds", len(res.MVDs), "interrupted", rep.Interrupted)
	return res, rep, res.Err
}

// mergeShards reduces per-shard per-pair outcomes to one MVDResult by
// replaying the single-node merge: iterate pairs in canonical order, keep
// each pair's separators, dedup full MVDs by fingerprint across pairs,
// sort canonically. Shards that never completed (nil results on the
// interrupt path) contribute nothing — their pairs are absent, exactly
// like pairs a single-node interrupted mine never reached.
func mergeShards(numAttrs int, results [][]core.PairMVDs, interrupted []bool, rep *Report) *core.MVDResult {
	byPair := make(map[core.Pair]core.PairMVDs)
	for i, rs := range results {
		if rs == nil {
			continue
		}
		if interrupted[i] {
			rep.Interrupted = true
		}
		for _, p := range rs {
			byPair[core.Pair{A: p.A, B: p.B}] = p
		}
	}
	res := &core.MVDResult{MinSeps: make(map[core.Pair][]bitset.AttrSet)}
	seen := make(map[string]bool)
	for a := 0; a < numAttrs; a++ {
		for b := a + 1; b < numAttrs; b++ {
			p, ok := byPair[core.Pair{A: a, B: b}]
			if !ok {
				continue
			}
			if len(p.Seps) > 0 {
				res.MinSeps[core.Pair{A: a, B: b}] = p.Seps
			}
			for _, phi := range p.MVDs {
				if fp := phi.Fingerprint(); !seen[fp] {
					seen[fp] = true
					res.MVDs = append(res.MVDs, phi)
				}
			}
		}
	}
	mvd.Sort(res.MVDs)
	return res
}

// mineShard drives one shard to completion: bounded attempts, exponential
// backoff between them, hedged dispatch within each attempt. Returns the
// shard's per-pair outcomes and whether the serving worker hit its
// deadline.
func (c *Coordinator) mineShard(ctx context.Context, spec Spec, st *shardState, p shardPlan, notify func()) ([]core.PairMVDs, bool, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			st.retry()
			notify()
			if err := c.cfg.Sleep(ctx, c.backoff(attempt)); err != nil {
				return nil, false, err
			}
		}
		out, intr, err := c.dispatchHedged(ctx, spec, st, p, attempt, notify)
		if err == nil {
			return out, intr, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			c.log.Error("shard failed permanently", "dataset", spec.Dataset, "shard", p.shard, "err", err)
			return nil, false, fmt.Errorf("dist: shard %d/%d of %q: %w", p.shard, c.numShards, spec.Dataset, perm.err)
		}
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		lastErr = err
		c.log.Warn("shard attempt failed, retrying",
			"dataset", spec.Dataset, "shard", p.shard, "attempt", attempt, "err", err)
	}
	return nil, false, fmt.Errorf("dist: shard %d/%d of %q failed after %d attempts: %w",
		p.shard, c.numShards, spec.Dataset, c.cfg.MaxAttempts, lastErr)
}

// shardOutcome is one dispatch's terminal report.
type shardOutcome struct {
	pairs []core.PairMVDs
	intr  bool
	err   error
}

// dispatchHedged sends one attempt of a shard, duplicating it to a
// different worker if it outlives the fleet's straggler quantile; the
// first success wins and the sibling is cancelled. A permanent rejection
// from either dispatch wins immediately. With all dispatches failed
// retriably, the first failure is reported to the retry loop.
func (c *Coordinator) dispatchHedged(ctx context.Context, spec Spec, st *shardState, p shardPlan, attempt int, notify func()) ([]core.PairMVDs, bool, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ch := make(chan shardOutcome, 2)
	launch := func(w *worker) {
		go func() {
			pairs, intr, err := c.callShard(hctx, spec, st, p, w)
			ch <- shardOutcome{pairs: pairs, intr: intr, err: err}
		}()
	}
	primary := c.pickWorker(p.shard, attempt)
	if attempt > 0 {
		primary.retries.Inc()
	}
	launch(primary)
	inflight := 1

	// The hedge timer starts as a short poll rather than the quantile
	// delay: all shards dispatch at mine start with zero completed
	// samples, so the quantile only becomes meaningful as siblings
	// finish. Each firing re-evaluates — not enough samples yet → poll
	// again; quantile known but not yet exceeded → sleep the remainder;
	// exceeded → hedge once.
	start := time.Now()
	var hedgeT *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeQuantile > 0 && len(c.workers) > 1 {
		hedgeT = time.NewTimer(c.cfg.HedgeMinDelay)
		defer hedgeT.Stop()
		hedgeC = hedgeT.C
	}

	var firstErr error
	for {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				return out.pairs, out.intr, nil
			}
			var perm *permanentError
			if errors.As(out.err, &perm) {
				return nil, false, out.err
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inflight == 0 {
				return nil, false, firstErr
			}
		case <-hedgeC:
			if d := c.hedgeDelay(st); d == 0 {
				hedgeT.Reset(c.cfg.HedgeMinDelay)
				continue
			} else if since := time.Since(start); since < d {
				hedgeT.Reset(d - since)
				continue
			}
			hedgeC = nil
			hedge := c.pickWorker(p.shard, attempt+1)
			if hedge == primary {
				continue
			}
			st.hedge()
			c.met.hedges.Inc()
			notify()
			c.log.Info("hedging straggler shard", "dataset", spec.Dataset, "shard", p.shard,
				"primary", primary.url, "hedge", hedge.url)
			launch(hedge)
			inflight++
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// callShard performs one shard RPC against one worker: acquire tenant and
// global in-flight tokens, POST the request, validate and convert the
// response. Network errors mark the worker unhealthy (the prober restores
// it); 4xx answers other than 408/429 are permanent; everything else —
// 5xx, decode failure, truncation, pair-sequence mismatch — is retriable.
func (c *Coordinator) callShard(ctx context.Context, spec Spec, st *shardState, p shardPlan, w *worker) ([]core.PairMVDs, bool, error) {
	release, err := c.acquire(ctx, spec.Tenant)
	if err != nil {
		return nil, false, err
	}
	defer release()

	st.dispatched()
	w.dispatches.Inc()

	body, err := json.Marshal(wire.ShardRequest{
		Dataset:        spec.Dataset,
		Epsilon:        spec.Epsilon,
		Shard:          p.shard,
		NumShards:      c.numShards,
		NumAttrs:       spec.NumAttrs,
		Rows:           spec.Rows,
		Workers:        spec.ShardWorkers,
		DisablePruning: spec.DisablePruning,
		TimeoutMS:      spec.TimeoutMS,
	})
	if err != nil {
		return nil, false, &permanentError{fmt.Errorf("encoding shard request: %w", err)}
	}
	rctx, rcancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, false, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")

	t0 := time.Now()
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		w.failures.Inc()
		if ctx.Err() == nil {
			// A transport-level failure with the mine still live is the
			// passive health signal: skip this worker until a probe or a
			// later success clears it.
			w.healthy.Store(false)
		}
		return nil, false, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	// Cap the body read far above any legitimate shard result; a server
	// gone haywire cannot make the coordinator buffer unbounded bytes.
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if resp.StatusCode != http.StatusOK {
		w.failures.Inc()
		msg := strings.TrimSpace(string(raw))
		if len(msg) > 512 {
			msg = msg[:512]
		}
		err := fmt.Errorf("worker %s: shard %d: HTTP %d: %s", w.url, p.shard, resp.StatusCode, msg)
		if permanentStatus(resp.StatusCode) {
			return nil, false, &permanentError{err}
		}
		return nil, false, err
	}
	if rerr != nil {
		w.failures.Inc()
		return nil, false, fmt.Errorf("worker %s: reading shard %d result: %w", w.url, p.shard, rerr)
	}

	var sr wire.ShardResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		w.failures.Inc()
		return nil, false, fmt.Errorf("worker %s: decoding shard %d result: %w", w.url, p.shard, err)
	}
	out, err := c.validateShard(&sr, spec, p)
	if err != nil {
		w.failures.Inc()
		return nil, false, fmt.Errorf("worker %s: %w", w.url, err)
	}
	elapsed := time.Since(t0)
	w.healthy.Store(true)
	w.latency.Observe(elapsed.Seconds())
	st.observeLatency(elapsed, len(raw))
	c.met.bytesMerged.Add(float64(len(raw)))
	if spec.OnTrace != nil && sr.Trace != nil {
		spec.OnTrace(sr.Trace)
	}
	return out, sr.Interrupted, nil
}

// permanentStatus reports whether an HTTP status is a permanent
// rejection: client errors except timeout (408) and backpressure (429).
func permanentStatus(code int) bool {
	return code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests
}

// validateShard checks a shard result against the shard's expected pair
// sequence and lifts it to core form. Any disagreement — truncated array,
// reordered or foreign pairs, malformed MVDs — is an error the retry loop
// treats as retriable.
func (c *Coordinator) validateShard(sr *wire.ShardResult, spec Spec, p shardPlan) ([]core.PairMVDs, error) {
	if sr.Dataset != spec.Dataset || sr.Shard != p.shard || sr.NumShards != c.numShards {
		return nil, fmt.Errorf("shard %d result identifies as %q shard %d/%d", p.shard, sr.Dataset, sr.Shard, sr.NumShards)
	}
	if sr.PairCount != len(sr.Pairs) {
		return nil, fmt.Errorf("shard %d result truncated: pair_count %d but %d pairs", p.shard, sr.PairCount, len(sr.Pairs))
	}
	if !sr.Interrupted && len(sr.Pairs) != len(p.pairs) {
		return nil, fmt.Errorf("shard %d result has %d pairs, expected %d", p.shard, len(sr.Pairs), len(p.pairs))
	}
	if sr.Interrupted && len(sr.Pairs) > len(p.pairs) {
		return nil, fmt.Errorf("shard %d interrupted result has %d pairs, more than the %d planned", p.shard, len(sr.Pairs), len(p.pairs))
	}
	out := make([]core.PairMVDs, 0, len(sr.Pairs))
	for i, pr := range sr.Pairs {
		a, b := p.pairs[i][0], p.pairs[i][1]
		if a > b {
			a, b = b, a
		}
		if pr.A != a || pr.B != b {
			return nil, fmt.Errorf("shard %d pair %d is (%d,%d), expected (%d,%d)", p.shard, i, pr.A, pr.B, a, b)
		}
		cp, err := pr.ToCore()
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}
