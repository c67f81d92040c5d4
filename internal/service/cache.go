package service

import (
	"container/list"
	"sync"
)

// DefaultResultCacheEntries is the default retention cap of the result
// cache. A JobResult can be large (every mined scheme and MVD, formatted)
// — a resident daemon keeps the most recently useful few hundred, not
// every result it ever produced.
const DefaultResultCacheEntries = 256

// cacheKey identifies a mining outcome per session incarnation: same
// session (and thus the same underlying data), same threshold, same
// options ⇒ same result (mining is deterministic). Keying on the session
// id rather than the dataset name means a dataset removed and
// re-registered under the same name — a new session over possibly
// different data — can never be served a stale result. Timeout is
// deliberately not part of the key — only complete (non-interrupted) runs
// are cached, and a complete result is valid under any timeout. Workers
// is excluded for the same reason: the parallel pipeline is
// deterministic, so a result mined at any fan-out answers a request at
// any other.
type cacheKey struct {
	session        int64
	epsilon        float64
	mode           string
	maxSchemes     int
	disablePruning bool
}

func keyOf(session int64, req JobRequest) cacheKey {
	return cacheKey{
		session:        session,
		epsilon:        req.Epsilon,
		mode:           req.Mode,
		maxSchemes:     req.MaxSchemes,
		disablePruning: req.DisablePruning,
	}
}

// cacheEnt is one LRU slot.
type cacheEnt struct {
	k cacheKey
	r *JobResult
}

// resultCache memoizes completed job results so repeated mine-then-
// evaluate workloads over a shared session pay the mining cost once.
// Retention is LRU with a fixed entry cap: a hit refreshes the entry, an
// insert past the cap evicts the least recently served result. Results
// are stored and served by pointer and must be treated as immutable by
// all readers.
type resultCache struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*list.Element
	lru *list.List // front = most recently used
	// retired holds session ids whose dataset was removed: put refuses
	// them, closing the lookup-then-put race with RemoveDataset (a job
	// finishing after removal would otherwise insert an entry no
	// invalidation can ever reach). Ids are 8 bytes and never reused, so
	// this grows by one word per dataset removal — bounded noise next to
	// the JobResults it prevents leaking.
	retired map[int64]bool

	hits, misses int64
}

// newResultCache builds the cache: capEntries 0 means
// DefaultResultCacheEntries, negative disables caching entirely (every
// get misses, every put is dropped — cap 0 internally).
func newResultCache(capEntries int) *resultCache {
	switch {
	case capEntries == 0:
		capEntries = DefaultResultCacheEntries
	case capEntries < 0:
		capEntries = 0 // disabled
	}
	return &resultCache{
		cap:     capEntries,
		m:       make(map[cacheKey]*list.Element),
		lru:     list.New(),
		retired: make(map[int64]bool),
	}
}

func (c *resultCache) get(k cacheKey) *JobResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEnt).r
}

func (c *resultCache) put(k cacheKey, r *JobResult) {
	if r == nil || r.Interrupted || c.cap == 0 {
		return // partial results are not reusable; cap 0 = cache disabled
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired[k.session] {
		return
	}
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEnt).r = r
		c.lru.MoveToFront(el)
		return
	}
	c.m[k] = c.lru.PushFront(&cacheEnt{k: k, r: r})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEnt).k)
	}
}

// invalidateSession eagerly drops every entry of one session incarnation
// and marks the id retired (called when its dataset is removed from the
// registry) — the results are unreachable by any future request, so they
// leave immediately instead of aging out of the LRU. Taking both actions
// under the cache lock makes the order against a racing put irrelevant:
// put-then-invalidate deletes the entry, invalidate-then-put refuses it.
func (c *resultCache) invalidateSession(id int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired[id] = true
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if ent := el.Value.(*cacheEnt); ent.k.session == id {
			c.lru.Remove(el)
			delete(c.m, ent.k)
		}
	}
}

// stats returns (hits, misses, entries).
func (c *resultCache) stats() (int64, int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
