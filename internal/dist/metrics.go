package dist

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Prometheus help strings and bucket bounds of the coordinator series.
// Shard RPC latencies span four orders of magnitude (a nursery shard on a
// warm worker is milliseconds; a wide noisy relation can run minutes), so
// the buckets are roughly log-spaced.
var shardLatencyBounds = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120, 600}

// metrics is the coordinator's slice of the obs registry: fleet-level
// counters plus per-worker families labelled by worker URL. Everything is
// registered eagerly in New so the series exist (at zero) from the first
// scrape, matching the PR 6 registry convention.
type metrics struct {
	reg *obs.Registry

	bytesMerged *obs.Counter
	mines       *obs.Counter
	minesFailed *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg: reg,
		bytesMerged: reg.Counter("maimond_shard_bytes_merged_total",
			"Bytes of shard-result bodies decoded and merged by the coordinator."),
		mines: reg.Counter("maimond_dist_mines_total",
			"Distributed mines accepted by the coordinator."),
		minesFailed: reg.Counter("maimond_dist_mines_failed_total",
			"Distributed mines that ended in an error (not counting clean interrupts)."),
	}
}

func (m *metrics) workerDispatches(url string) *obs.Counter {
	return m.reg.Counter("maimond_shard_dispatches_total",
		"Shard RPCs sent, by worker (includes retries).",
		obs.L("worker", url))
}

func (m *metrics) workerRetries(url string) *obs.Counter {
	return m.reg.Counter("maimond_shard_retries_total",
		"Shard attempts retried after a retriable failure, by the worker that failed.",
		obs.L("worker", url))
}

func (m *metrics) workerFailures(url string) *obs.Counter {
	return m.reg.Counter("maimond_shard_failures_total",
		"Shard RPCs that failed (network error, 5xx, or invalid body), by worker.",
		obs.L("worker", url))
}

func (m *metrics) workerLatency(url string) *obs.Histogram {
	return m.reg.Histogram("maimond_shard_latency_seconds",
		"Wall time of successful shard RPCs, by worker.",
		shardLatencyBounds, obs.L("worker", url))
}

// bindWorkerHealth exports a worker's health flag as a 0/1 gauge sampled
// at scrape time.
func (m *metrics) bindWorkerHealth(url string, healthy *atomic.Bool) {
	m.reg.GaugeFunc("maimond_worker_healthy",
		"Whether the coordinator currently considers the worker healthy (1) or not (0).",
		func() float64 {
			if healthy.Load() {
				return 1
			}
			return 0
		},
		obs.L("worker", url))
}
