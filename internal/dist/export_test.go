package dist

// SetShardsPerWorker sizes the fleet's shards for tests that pin a one-,
// two-, three- or eight-shard-per-worker layout.
func (c *Config) SetShardsPerWorker(n int) { c.shardsPerWorker = n }

// HoldRPCs stalls every shard RPC to the worker at url that has not yet
// been sent, until release is called. The RPC waits on the worker's
// abort lock, which callShard takes after the lane has taken the shard
// and before the request leaves.
func (c *Coordinator) HoldRPCs(url string) (release func()) {
	w := c.workerAt(url)
	w.mu.Lock()
	return w.mu.Unlock
}

// Healthy reports whether the coordinator considers the worker at url
// healthy.
func (c *Coordinator) Healthy(url string) bool { return c.workerAt(url).healthy.Load() }

func (c *Coordinator) workerAt(url string) *worker {
	for _, w := range c.workers {
		if w.url == url {
			return w
		}
	}
	panic("dist: no worker " + url)
}
