package dist

// SetShardsPerWorker sizes the fleet's shards for tests that pin a one-,
// two-, three- or eight-shard-per-worker layout.
func (c *Config) SetShardsPerWorker(n int) { c.shardsPerWorker = n }
