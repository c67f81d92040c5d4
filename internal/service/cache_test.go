package service

import (
	"context"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/datagen"
)

func resultOf(epsilon float64) *JobResult {
	return &JobResult{Dataset: "d", Epsilon: epsilon, Mode: ModeMVDs}
}

// TestResultCacheLRUEviction: inserts past the cap evict the least
// recently served entry; a get refreshes recency.
func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(3)
	keys := make([]cacheKey, 4)
	for i := range keys {
		keys[i] = cacheKey{session: 1, epsilon: float64(i), mode: ModeMVDs}
	}
	for i := 0; i < 3; i++ {
		c.put(keys[i], resultOf(float64(i)))
	}
	// Touch keys[0] so keys[1] is now the coldest, then overflow.
	if c.get(keys[0]) == nil {
		t.Fatal("warm entry missing before overflow")
	}
	c.put(keys[3], resultOf(3))
	if c.get(keys[1]) != nil {
		t.Fatal("LRU entry survived an over-cap insert")
	}
	for _, i := range []int{0, 2, 3} {
		if c.get(keys[i]) == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if _, _, entries := c.stats(); entries != 3 {
		t.Fatalf("entries = %d, want 3 (cap)", entries)
	}
}

// TestResultCacheRetiredSessionEagerlyEvicted: invalidating a session
// removes its entries immediately and refuses late inserts, while other
// sessions' entries survive.
func TestResultCacheRetiredSessionEagerlyEvicted(t *testing.T) {
	c := newResultCache(10)
	k1 := cacheKey{session: 1, epsilon: 0.1, mode: ModeMVDs}
	k2 := cacheKey{session: 2, epsilon: 0.1, mode: ModeMVDs}
	c.put(k1, resultOf(0.1))
	c.put(k2, resultOf(0.1))
	c.invalidateSession(1)
	if c.get(k1) != nil {
		t.Fatal("retired session's entry still served")
	}
	if c.get(k2) == nil {
		t.Fatal("unrelated session's entry evicted")
	}
	c.put(k1, resultOf(0.1)) // a job finishing after removal
	if c.get(k1) != nil {
		t.Fatal("late insert under a retired session id was accepted")
	}
	if _, _, entries := c.stats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

// TestResultCacheDefaultCap: a manager's result cache retains
// DefaultResultCacheEntries results and no more.
func TestResultCacheDefaultCap(t *testing.T) {
	m := NewManager(NewRegistry(), Config{Workers: 1})
	defer m.Close()
	c := m.cache
	if c.cap != DefaultResultCacheEntries {
		t.Fatalf("cap = %d, want %d", c.cap, DefaultResultCacheEntries)
	}
	for i := 0; i < DefaultResultCacheEntries+50; i++ {
		c.put(cacheKey{session: 9, epsilon: float64(i)}, resultOf(float64(i)))
	}
	if _, _, entries := c.stats(); entries != DefaultResultCacheEntries {
		t.Fatalf("entries = %d, want %d", entries, DefaultResultCacheEntries)
	}
}

// TestJobStatusReportsMemory: once a job has run, its status carries the
// live memory state of the dataset session it mined against — the
// service-level window onto the PLI cache that -cache-bytes governs.
func TestJobStatusReportsMemory(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("nursery", datagen.Nursery().Head(400)); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(reg, Config{Workers: 1})
	defer mgr.Close()
	job, err := mgr.Submit(JobRequest{Dataset: "nursery", Epsilon: 0.1, Mode: ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Memory == nil {
		t.Fatal("status of a run job carries no memory state")
	}
	if st.Memory.PLIEntries == 0 {
		t.Fatalf("memory reports an empty PLI cache after a mine: %+v", st.Memory)
	}
	// An unbudgeted session evicts nothing; occupancy must be visible.
	if st.Memory.BytesLive == 0 || st.Memory.Evictions != 0 {
		t.Fatalf("unexpected memory state %+v", st.Memory)
	}
}

// TestBudgetedRegistrySessions: a registry opened with a memory budget
// passes it to every session — a mined dataset's cache rests within the
// budget and reports evictions through job status.
func TestBudgetedRegistrySessions(t *testing.T) {
	const budget = 64 << 10
	reg := NewRegistry(maimon.WithMemoryBudget(budget))
	if _, err := reg.Add("nursery", datagen.Nursery().Head(800)); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(reg, Config{Workers: 1})
	defer mgr.Close()
	job, err := mgr.Submit(JobRequest{Dataset: "nursery", Epsilon: 0.2, Mode: ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-job.Done():
	case <-ctx.Done():
		t.Fatal("job did not finish")
	}
	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Memory == nil {
		t.Fatal("no memory state on a budgeted session's job")
	}
	if st.Memory.BytesLive > budget {
		t.Fatalf("BytesLive %d over the %d budget at rest", st.Memory.BytesLive, budget)
	}
	if st.Memory.Evictions == 0 {
		t.Fatalf("64KiB budget forced no evictions: %+v", st.Memory)
	}
}
