package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// This file is the worker half of the distributed mining tier: the
// handler behind POST /v1/shards. A coordinator (internal/dist) sends a
// ShardRequest naming a dataset, an ε, and a shard of the attribute-pair
// space; the worker derives the shard's pair list with the shared fmix64
// policy, mines exactly those pairs through the dataset's warm session,
// and returns the per-pair outcomes for the coordinator to merge.
//
// Shard mines run synchronously on the request goroutine (the
// coordinator owns the queue, retries and timeouts — a job-style async
// lifecycle here would only add state to reconcile), bounded by shardSem
// so a flood of shard RPCs cannot oversubscribe the CPU the job pool is
// sized for.

// MineShard executes one shard request and returns the result, or a
// non-nil error with the HTTP status it should be served as.
func (m *Manager) MineShard(ctx context.Context, req wire.ShardRequest) (*wire.ShardResult, int, error) {
	if !m.Ready() {
		return nil, http.StatusServiceUnavailable, ErrClosed
	}
	if req.Epsilon < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("service: epsilon must be ≥ 0, got %v", req.Epsilon)
	}
	if req.NumShards < 1 || req.Shard < 0 || req.Shard >= req.NumShards {
		return nil, http.StatusBadRequest, fmt.Errorf("service: shard %d out of range [0,%d)", req.Shard, req.NumShards)
	}
	if err := checkTimeout(req.TimeoutMS); err != nil {
		return nil, http.StatusBadRequest, err
	}
	sess, ok := m.reg.Get(req.Dataset)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("service: unknown dataset %q", req.Dataset)
	}
	r := sess.Relation()
	// The shape check is the distributed tier's defence against silent
	// wrong answers: a same-named dataset with different contents on one
	// worker must fail the shard loudly (409), not merge garbage.
	if r.NumCols() != req.NumAttrs || (req.Rows > 0 && r.NumRows() != req.Rows) {
		return nil, http.StatusConflict, fmt.Errorf(
			"service: dataset %q has %d attrs × %d rows here, coordinator expects %d × %d — same name, different data?",
			req.Dataset, r.NumCols(), r.NumRows(), req.NumAttrs, req.Rows)
	}
	if r.NumCols() < 3 {
		return nil, http.StatusBadRequest, fmt.Errorf("service: dataset %q has %d attributes; mining needs at least 3", req.Dataset, r.NumCols())
	}

	// Bound concurrent shard mines like jobs are bounded by the pool:
	// blocking (not rejecting) holds the coordinator's lane until a slot
	// frees, and honoring ctx lets an abandoned RPC leave the queue.
	select {
	case m.shardSem <- struct{}{}:
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, ctx.Err()
	}
	defer func() { <-m.shardSem }()

	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	pairs := core.ShardPairs(req.NumAttrs, req.Shard, req.NumShards)
	start := time.Now()
	var tr maimon.MineTrace
	out, err := sess.MinePairMVDs(ctx, pairs,
		maimon.WithEpsilon(req.Epsilon),
		maimon.WithWorkers(m.mineWorkers(req.Workers)),
		maimon.WithTrace(&tr),
	)
	m.tel.observeTrace(&tr)
	// Interrupted means the shard's own timeout cut it, whatever the
	// error is named.
	interrupted := err != nil && ctx.Err() == context.DeadlineExceeded
	if err != nil && !interrupted {
		// Cancellation or an internal failure: there is no valid partial
		// contract to serve, let the coordinator retry elsewhere.
		m.tel.shardServed(req, 0, time.Since(start), err)
		return nil, http.StatusServiceUnavailable, err
	}
	res := &wire.ShardResult{
		Dataset:     req.Dataset,
		Shard:       req.Shard,
		NumShards:   req.NumShards,
		Pairs:       wire.PairResultsFromCore(out),
		PairCount:   len(out),
		Interrupted: interrupted,
		ElapsedMS:   time.Since(start).Milliseconds(),
		Trace:       &tr,
	}
	m.tel.shardServed(req, len(out), time.Since(start), nil)
	return res, http.StatusOK, nil
}
