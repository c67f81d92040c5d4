package stripe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// retireLog records every retire call of a store.
type retireLog struct {
	mu  sync.Mutex
	got map[uint64]int
}

func (l *retireLog) retire(k uint64, _ int64) {
	l.mu.Lock()
	l.got[k]++
	l.mu.Unlock()
}

// sizedStore is a store whose int64 values price themselves.
func sizedStore(shards int, budget int64) (*Store[uint64, int64], *retireLog) {
	l := &retireLog{got: make(map[uint64]int)}
	return NewStore(shards, budget, func(v int64) int64 { return v }, l.retire), l
}

func TestStoreSingleFlight(t *testing.T) {
	s, _ := sizedStore(4, 0)
	const callers = 16
	var owners atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]int64, callers)
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, owner := s.Acquire(7)
			if owner {
				owners.Add(1)
				time.Sleep(10 * time.Millisecond) // let the others queue up
				v = 42
				s.Publish(7, v, false)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := owners.Load(); n != 1 {
		t.Fatalf("%d callers owned one key, want exactly 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want the published 42", i, v)
		}
	}
	if v, ok := s.Get(7); !ok || v != 42 || s.Len() != 1 {
		t.Fatalf("after publish Get = %d, %v with Len %d; want 42, true, 1", v, ok, s.Len())
	}
}

func TestStoreAbortReopensKey(t *testing.T) {
	s, l := sizedStore(1, 0)
	if _, owner := s.Acquire(3); !owner {
		t.Fatal("first Acquire of an absent key did not own it")
	}
	waited := make(chan int64)
	go func() {
		v, owner := s.Acquire(3)
		if owner {
			t.Error("a waiter became the owner of a key in flight")
		}
		waited <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	s.Abort(3, -1)
	if v := <-waited; v != -1 {
		t.Fatalf("waiter got %d, want the value handed to Abort, -1", v)
	}
	if _, ok := s.Get(3); ok || s.Len() != 0 {
		t.Fatalf("aborted key is stored (Len %d)", s.Len())
	}
	if _, owner := s.Acquire(3); !owner {
		t.Fatal("Acquire after Abort did not own the key again")
	}
	s.Publish(3, 5, false)
	if v, ok := s.Get(3); !ok || v != 5 || len(l.got) != 0 {
		t.Fatalf("Get = %d, %v after the reopened key was published, retired %v", v, ok, l.got)
	}
}

func TestStorePinnedNeverEvictedOrCharged(t *testing.T) {
	s, l := sizedStore(4, 100)
	var pinned int64
	for k := uint64(1); k <= 8; k++ {
		s.Publish(k, 60, true) // each alone is over half the budget
		pinned += 60
	}
	for k := uint64(100); k < 300; k++ {
		if _, owner := s.Acquire(k); owner {
			s.Publish(k, 10, false)
		}
	}
	if s.PinnedBytes() != pinned {
		t.Fatalf("PinnedBytes = %d, want %d", s.PinnedBytes(), pinned)
	}
	if s.Bytes() > 100 {
		t.Fatalf("Bytes = %d: pinned entries were charged or the budget was overrun", s.Bytes())
	}
	for k := uint64(1); k <= 8; k++ {
		if _, ok := s.Get(k); !ok || l.got[k] != 0 {
			t.Fatalf("pinned key %d evicted (retired %d times)", k, l.got[k])
		}
	}
	if len(l.got) == 0 {
		t.Fatal("200 entries of 10 B through a 100 B budget evicted nothing")
	}
}

func TestStoreBudgetAfterEveryPublish(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s, l := sizedStore(shards, 1000)
		for k := uint64(1); k <= 500; k++ {
			size := int64(k%7) * 40
			if k%97 == 0 {
				size = 1500 // cannot fit at all: the insert undoes itself
			}
			if _, owner := s.Acquire(k); !owner {
				t.Fatalf("fresh key %d was not owned", k)
			}
			s.Publish(k, size, false)
			if b := s.Bytes(); b > 1000 {
				t.Fatalf("%d shards: Bytes %d over the 1000 B budget after publishing key %d", shards, b, k)
			}
			if size > 1000 {
				if _, ok := s.Get(k); ok || l.got[k] != 1 {
					t.Fatalf("%d shards: an entry larger than the budget stayed (retired %d times)", shards, l.got[k])
				}
			}
		}
	}
}

func TestStoreRetireOncePerEvictedKey(t *testing.T) {
	s, l := sizedStore(4, 64)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range perWorker {
				k := uint64(w*perWorker + i + 1)
				if _, owner := s.Acquire(k); owner {
					s.Publish(k, 8, false)
				}
				s.Get(uint64(w*perWorker + i/2 + 1)) // touch an older key
			}
		}(w)
	}
	wg.Wait()
	resident := make(map[uint64]bool)
	var bytes int64
	s.Range(func(k uint64, v int64) {
		resident[k] = true
		bytes += v
	})
	for k := uint64(1); k <= workers*perWorker; k++ {
		switch n := l.got[k]; {
		case n > 1:
			t.Fatalf("key %d retired %d times", k, n)
		case n == 1 && resident[k]:
			t.Fatalf("key %d retired but still stored", k)
		case n == 0 && !resident[k]:
			t.Fatalf("key %d neither stored nor retired", k)
		}
	}
	if s.Len() != len(resident) || s.Bytes() != bytes {
		t.Fatalf("Len %d, Bytes %d; the entries hold %d keys, %d B", s.Len(), s.Bytes(), len(resident), bytes)
	}
}

func TestStoreTouchedKeySurvivesChurn(t *testing.T) {
	s, l := sizedStore(1, 8)
	// Fill to the budget and overflow once, so the first sweep, which
	// finds every entry still carrying its admission bit, is spent on
	// cold keys.
	for k := uint64(1); k <= 9; k++ {
		s.Publish(k, 1, false)
	}
	const hot = 1000
	s.Publish(hot, 1, false)
	for k := uint64(10); k < 200; k++ {
		s.Publish(k, 1, false)
		if _, ok := s.Get(hot); !ok {
			t.Fatalf("hot key evicted after publishing key %d", k)
		}
	}
	if l.got[hot] != 0 || len(l.got) < 150 {
		t.Fatalf("hot key retired %d times over %d evictions", l.got[hot], len(l.got))
	}
}

func TestStoreRefusesWhatNeverFits(t *testing.T) {
	s, l := sizedStore(1, 100)
	s.Publish(1, 30, false)
	s.Publish(2, 40, false)
	if _, owner := s.Acquire(3); !owner {
		t.Fatal("fresh key 3 was not owned")
	}
	// A reader that finds the key in flight waits for it and gets the
	// value; one that comes after the publish finds nothing.
	waited := make(chan error)
	go func() {
		var err error
		if v, ok := s.Get(3); ok && v != 500 {
			err = fmt.Errorf("waiter got %d, want the published 500", v)
		}
		waited <- err
	}()
	s.Publish(3, 500, false) // priced above the whole budget
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	for k, want := range map[uint64]int64{1: 30, 2: 40} {
		if v, ok := s.Get(k); !ok || v != want {
			t.Fatalf("key %d = %d, %v after an oversize publish; want %d, true", k, v, ok, want)
		}
	}
	if _, ok := s.Get(3); ok || s.Len() != 2 || s.Bytes() != 70 {
		t.Fatalf("oversize entry stored: Len %d, Bytes %d; want 2, 70", s.Len(), s.Bytes())
	}
	if len(l.got) != 1 || l.got[3] != 1 {
		t.Fatalf("retired %v, want the oversize key 3 once and nothing else", l.got)
	}
}
