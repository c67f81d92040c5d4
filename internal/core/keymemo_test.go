package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSlotClaimWaits drives one slot from eight goroutines. One
// claims it and holds it until another has marked it waited; then it
// reopens the slot unsettled, as a stopped search does. Exactly one more
// caller must claim it and settle it, and every caller must come back
// with that verdict: nobody sleeps through the settle, and nobody reads
// the reopened slot as a verdict.
func TestSlotClaimWaits(t *testing.T) {
	k := newKeyMemo(8)
	var st atomic.Uint32
	var owners atomic.Int32
	release := make(chan struct{})
	got := make([]uint32, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := k.claim(&st)
				if s != slotOpen {
					got[g] = s
					return
				}
				if owners.Add(1) == 1 {
					<-release
					k.settle(&st, slotOpen)
					continue
				}
				k.settle(&st, slotYes)
			}
		}()
	}
	for st.Load() != slotWaited {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := owners.Load(); n != 2 {
		t.Fatalf("%d claims, want 2: the reopening owner's and one more", n)
	}
	for g, s := range got {
		if s != slotYes {
			t.Fatalf("caller %d came back with state %d, want the settled verdict %d", g, s, slotYes)
		}
	}
}
