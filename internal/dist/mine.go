package dist

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Spec describes one distributed phase-1 mine.
type Spec struct {
	// Dataset names the dataset, registered under the same name on every
	// worker.
	Dataset string
	// Epsilon is the approximation threshold ε ≥ 0 in bits.
	Epsilon float64
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
	// OnShard, when non-nil, receives a progress snapshot when the mine
	// starts, after every shard completion and retry, and once more after
	// the last lane has stopped. Calls are made one at a time, in order,
	// under the mine's lock: OnShard must be cheap and must not call back
	// into the coordinator.
	OnShard func(ShardProgress)
	// OnTrace, when non-nil, receives each shard's worker-side mine
	// trace as it arrives (from concurrent lanes — it must be safe for
	// concurrent use), so the coordinator can fold fleet-wide stage work
	// into its own telemetry.
	OnTrace func(*obs.MineTrace)
}

// ShardProgress is a live snapshot of a distributed mine's fan-out.
type ShardProgress struct {
	ShardsDone  int
	ShardsTotal int
	PairsDone   int
	PairsTotal  int
	Retries     int
}

// Report summarizes how a distributed mine executed — the fan-out
// accounting alongside the mining result proper.
type Report struct {
	// Shards is how many non-empty shards the mine fanned out to.
	Shards int
	// Dispatches counts shard RPCs sent (first attempts + retries); a
	// fault-free mine sends each shard once.
	Dispatches int
	// Retries counts attempts re-queued after a retriable failure.
	Retries int
	// BytesMerged is the total size of the shard-result bodies merged.
	BytesMerged int64
	// Interrupted reports that at least one worker hit its shard
	// deadline, so the merged result may be partial.
	Interrupted bool
}

// shardPlan is one non-empty shard of the mine's pair space.
type shardPlan struct {
	shard int
	pairs [][2]int
	// attempts counts the shard's failed attempts. Only the lane holding
	// the shard touches it; the queue hands it from lane to lane.
	attempts int
}

// mineRun is one mine's shard queue and accounting.
type mineRun struct {
	c          *Coordinator
	spec       Spec
	plan       []shardPlan
	pairsTotal int

	// ctx ends the mine's lanes and RPCs: cancelled once every shard is
	// done, on the first fatal shard failure, or with the caller's context.
	ctx    context.Context
	cancel context.CancelFunc
	// queue holds plan indexes of shards waiting for a lane. A shard is
	// queued, in flight or backing off, never two of these at once, so a
	// buffer of len(plan) never blocks a send.
	queue chan int

	mu         sync.Mutex
	results    [][]core.PairMVDs
	rep        Report
	shardsDone int
	pairsDone  int
	err        error // first permanent failure or exhausted shard
}

// MineMVDs runs phase 1 of a mine distributed across the fleet and
// returns the merged result — byte-identical to a single-node
// (*Session).MineMVDs over the same dataset and ε — together with a
// fan-out Report.
//
// The error contract mirrors the single-node miner: ctx stopping the
// mine merges the shards completed so far and returns them with
// ctx.Err(); a worker's shard deadline (Spec.TimeoutMS) cutting a shard
// returns the merge with context.DeadlineExceeded; a shard exhausting
// its attempts or failing permanently returns (nil, report, err).
func (c *Coordinator) MineMVDs(ctx context.Context, spec Spec) (*core.MVDResult, *Report, error) {
	if spec.Dataset == "" {
		return nil, nil, errors.New("dist: spec needs a dataset name")
	}
	if spec.NumAttrs < 3 {
		return nil, nil, fmt.Errorf("dist: dataset %q: need at least 3 attributes, have %d", spec.Dataset, spec.NumAttrs)
	}

	// Plan: every non-empty shard of the pair space. Pair lists are
	// derived locally and never shipped; the worker re-derives the same
	// list from (NumAttrs, shard, numShards).
	m := &mineRun{c: c, spec: spec}
	for s := 0; s < c.numShards; s++ {
		if ps := core.ShardPairs(spec.NumAttrs, s, c.numShards); len(ps) > 0 {
			m.plan = append(m.plan, shardPlan{shard: s, pairs: ps})
			m.pairsTotal += len(ps)
		}
	}
	m.results = make([][]core.PairMVDs, len(m.plan))
	m.rep.Shards = len(m.plan)
	m.queue = make(chan int, len(m.plan))
	m.ctx, m.cancel = context.WithCancel(ctx)
	defer m.cancel()

	m.update(func() {})
	// The first shards are dealt round-robin, one per lane, so every
	// worker starts with its share however the lanes get scheduled; the
	// rest wait on the queue for whichever lane frees up first.
	var wg sync.WaitGroup
	next := 0
	for range lanesPerWorker {
		for _, w := range c.workers {
			first := -1
			if next < len(m.plan) {
				first, next = next, next+1
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.lane(w, first)
			}()
		}
	}
	for ; next < len(m.plan); next++ {
		m.queue <- next
	}
	wg.Wait()
	m.update(func() {}) // the final snapshot: no lane can send a later one
	rep := m.rep

	if m.shardsDone < len(m.plan) {
		// The caller's context expiring or being cancelled mid-mine
		// follows the single-node contract: merge what completed and
		// return it with the context's error. Any other failure
		// (permanent worker rejection, attempts exhausted) fails the mine
		// outright.
		if ctxErr := ctx.Err(); ctxErr != nil {
			rep.Interrupted = true
			c.log.Warn("distributed mine interrupted",
				"dataset", spec.Dataset, "cause", ctxErr, "shards", rep.Shards)
			return m.merge(), &rep, ctxErr
		}
		c.log.Error("distributed mine failed", "dataset", spec.Dataset, "err", m.err)
		return nil, &rep, m.err
	}

	res := m.merge()
	c.log.Info("distributed mine done",
		"dataset", spec.Dataset, "epsilon", spec.Epsilon, "shards", rep.Shards,
		"dispatches", rep.Dispatches, "retries", rep.Retries,
		"mvds", len(res.MVDs), "interrupted", rep.Interrupted)
	if rep.Interrupted {
		return res, &rep, context.DeadlineExceeded
	}
	return res, &rep, nil
}

// update applies f to the mine's accounting and sends OnShard the
// resulting snapshot, both under the lock, so snapshots arrive in order.
func (m *mineRun) update(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f()
	if m.spec.OnShard != nil {
		m.spec.OnShard(ShardProgress{
			ShardsDone:  m.shardsDone,
			ShardsTotal: len(m.plan),
			PairsDone:   m.pairsDone,
			PairsTotal:  m.pairsTotal,
			Retries:     m.rep.Retries,
		})
	}
}

// fail ends the mine with err unless an earlier failure already did.
func (m *mineRun) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cancel()
}

// lane is one of worker w's lanes: it sends w the shard it was dealt
// (next < 0: none), then takes the next shard off the queue, and repeats
// until the mine is over. While w is sidelined it leaves shards to the
// other workers' lanes, and puts back one it took as w was sidelined.
// w's failure count is read before the sidelined check, so the decision
// to send and the rule for restoring w on success (see callShard) see
// the same instant: a failure recorded after the check keeps w down.
func (m *mineRun) lane(w *worker, next int) {
	for {
		if next >= 0 {
			downs := w.downs.Load()
			if m.c.sidelined(w) {
				m.queue <- next
			} else {
				m.run(w, next, downs)
			}
			next = -1
		}
		queue := m.queue
		change := m.c.healthChange()
		if m.c.sidelined(w) {
			queue = nil
		}
		select {
		case next = <-queue:
		case <-change:
		case <-m.ctx.Done():
			return
		}
	}
}

// run sends shard i to w once and settles the outcome: record the
// result, fail the mine, or mark w unhealthy and put the shard back on
// the queue after backoff, so the retry goes to another worker while one
// is healthy. downs is w's failure count when the lane took the shard.
func (m *mineRun) run(w *worker, i int, downs int64) {
	c, p := m.c, &m.plan[i]
	w.dispatches.Inc()
	m.mu.Lock()
	m.rep.Dispatches++
	m.mu.Unlock()

	out, intr, size, err := c.callShard(m.ctx, m.spec, p, w, downs)
	if err == nil {
		m.update(func() {
			m.results[i] = out
			m.rep.Interrupted = m.rep.Interrupted || intr
			m.rep.BytesMerged += int64(size)
			m.shardsDone++
			m.pairsDone += len(out)
			if m.shardsDone == len(m.plan) {
				m.cancel()
			}
		})
		return
	}
	if m.ctx.Err() != nil {
		return // the mine is over; MineMVDs settles how
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		c.log.Error("shard failed permanently", "dataset", m.spec.Dataset, "shard", p.shard, "err", err)
		m.fail(fmt.Errorf("dist: shard %d/%d of %q: %w", p.shard, c.numShards, m.spec.Dataset, perm.err))
		return
	}
	if c.setHealthy(w, false) {
		c.log.Warn("worker unhealthy", "worker", w.url, "err", err)
	}
	p.attempts++
	if p.attempts >= c.maxAttempts {
		m.fail(fmt.Errorf("dist: shard %d/%d of %q failed after %d attempts: %w",
			p.shard, c.numShards, m.spec.Dataset, p.attempts, err))
		return
	}
	c.log.Warn("shard attempt failed, retrying",
		"dataset", m.spec.Dataset, "shard", p.shard, "attempt", p.attempts, "err", err)
	w.retries.Inc()
	m.update(func() { m.rep.Retries++ })
	if c.cfg.Sleep(m.ctx, backoff(p.attempts)) == nil {
		m.queue <- i
	}
}

// merge puts the completed shards' per-pair outcomes back in canonical
// pair order and merges them as a single-node mine does. Shards that
// never completed contribute nothing — their pairs are absent, exactly
// like pairs a single-node interrupted mine never reached.
func (m *mineRun) merge() *core.MVDResult {
	var ps []core.PairMVDs
	for _, rs := range m.results {
		ps = append(ps, rs...)
	}
	slices.SortFunc(ps, func(x, y core.PairMVDs) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return core.MergePairs(ps)
}

// callShard performs one shard RPC against one worker: POST the request,
// validate and convert the response, and report the body size. w's
// abortInflight ends the RPC, like the end of the mine does. 4xx answers
// other than 408/429 are permanent; everything else — network error,
// 5xx, decode failure, truncation, pair-sequence mismatch — is
// retriable. A success restores w's health unless a failure of w was
// recorded since downs was read, when the lane took the shard.
func (c *Coordinator) callShard(ctx context.Context, spec Spec, p *shardPlan, w *worker, downs int64) ([]core.PairMVDs, bool, int, error) {
	body, err := json.Marshal(wire.ShardRequest{
		Dataset:   spec.Dataset,
		Epsilon:   spec.Epsilon,
		Shard:     p.shard,
		NumShards: c.numShards,
		NumAttrs:  spec.NumAttrs,
		Rows:      spec.Rows,
		Workers:   spec.ShardWorkers,
		TimeoutMS: spec.TimeoutMS,
	})
	if err != nil {
		return nil, false, 0, &permanentError{fmt.Errorf("encoding shard request: %w", err)}
	}
	rctx, rcancel := context.WithTimeout(ctx, requestTimeout)
	defer rcancel()
	defer context.AfterFunc(w.aborted(), rcancel)()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, false, 0, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")

	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		w.failures.Inc()
		return nil, false, 0, fmt.Errorf("worker %s: %w", w.url, err)
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
			return nil, false, 0, &permanentError{err}
		}
		return nil, false, 0, err
	}
	if rerr != nil {
		w.failures.Inc()
		return nil, false, 0, fmt.Errorf("worker %s: reading shard %d result: %w", w.url, p.shard, rerr)
	}

	var sr wire.ShardResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		w.failures.Inc()
		return nil, false, 0, fmt.Errorf("worker %s: decoding shard %d result: %w", w.url, p.shard, err)
	}
	out, err := c.validateShard(&sr, spec, p)
	if err != nil {
		w.failures.Inc()
		return nil, false, 0, fmt.Errorf("worker %s: %w", w.url, err)
	}
	if w.downs.Load() == downs {
		c.setHealthy(w, true)
	}
	w.latency.Observe(time.Since(t0).Seconds())
	c.met.bytesMerged.Add(float64(len(raw)))
	if spec.OnTrace != nil && sr.Trace != nil {
		spec.OnTrace(sr.Trace)
	}
	return out, sr.Interrupted, len(raw), nil
}

// permanentStatus reports whether an HTTP status is a permanent
// rejection: client errors except timeout (408) and backpressure (429).
func permanentStatus(code int) bool {
	return code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests
}

// validateShard checks a shard result against the shard's expected pair
// sequence and lifts it to core form. Any disagreement — truncated array,
// reordered or foreign pairs, malformed MVDs — is an error the lane
// treats as retriable.
func (c *Coordinator) validateShard(sr *wire.ShardResult, spec Spec, p *shardPlan) ([]core.PairMVDs, error) {
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
