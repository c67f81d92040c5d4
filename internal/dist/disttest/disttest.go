// Package disttest is the fault-injection harness of the distributed
// mining tier: a proxy that fronts a real worker handler and misbehaves
// on command — 500s, hangs, truncated bodies, dropped connections —
// per shard request, so tests can pin the coordinator's retry, backoff,
// re-queue and failure semantics against deterministic faults instead of
// real network weather.
package disttest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"
)

// Action is what the proxy does with one shard request.
type Action int

const (
	// Pass forwards the request to the backend untouched.
	Pass Action = iota
	// Fail500 answers 500 without consulting the backend (retriable).
	Fail500
	// Hang blocks until the client gives up (the mine ending, failed
	// probes aborting the worker's RPCs, or the request timeout) — the
	// hung-worker shape.
	Hang
	// Truncate forwards to the backend but returns only the first half
	// of the response body — the torn-response shape the coordinator
	// must catch by decode failure or pair_count mismatch.
	Truncate
	// Die aborts the connection mid-request (the process-crash shape:
	// the client sees a transport error, not an HTTP status).
	Die
)

// Delay wraps an action with a pause before it runs; zero Sleep means no
// pause. Used to make one worker a measured straggler rather than a
// dead one.
type Delayed struct {
	Sleep time.Duration
	Then  Action
}

// Script decides the action for the n-th shard request (1-based). Nil
// entries and calls beyond the script Pass.
type Script func(call int) Delayed

// Always returns a script applying the same action to every call.
func Always(a Action) Script {
	return func(int) Delayed { return Delayed{Then: a} }
}

// FailFirst returns a script applying a to the first n calls and passing
// the rest — the transient-fault shape retry must absorb.
func FailFirst(n int, a Action) Script {
	return func(call int) Delayed {
		if call <= n {
			return Delayed{Then: a}
		}
		return Delayed{Then: Pass}
	}
}

// DieAfter returns a script that serves the first n calls and drops the
// connection on every later one — a worker crashing mid-mine.
func DieAfter(n int) Script {
	return func(call int) Delayed {
		if call <= n {
			return Delayed{Then: Pass}
		}
		return Delayed{Then: Die}
	}
}

// Proxy fronts a worker handler, applying the script to POST .../shards
// requests and passing everything else (health probes, job routes)
// through untouched.
type Proxy struct {
	backend http.Handler
	script  Script

	mu    sync.Mutex
	calls int
}

// New builds a proxy over backend. A nil script passes everything.
func New(backend http.Handler, script Script) *Proxy {
	return &Proxy{backend: backend, script: script}
}

// Calls reports how many shard requests the proxy has seen.
func (p *Proxy) Calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// SetScript swaps the fault script (e.g. to "kill" a healthy worker mid
// mine). Takes effect on the next shard request.
func (p *Proxy) SetScript(s Script) {
	p.mu.Lock()
	p.script = s
	p.mu.Unlock()
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/shards") {
		p.backend.ServeHTTP(w, r)
		return
	}
	p.mu.Lock()
	p.calls++
	script := p.script
	n := p.calls
	p.mu.Unlock()

	d := Delayed{Then: Pass}
	if script != nil {
		d = script(n)
	}
	if d.Sleep > 0 {
		select {
		case <-time.After(d.Sleep):
		case <-r.Context().Done():
			return
		}
	}
	switch d.Then {
	case Fail500:
		http.Error(w, "disttest: injected failure", http.StatusInternalServerError)
	case Hang:
		// Drain the body first: the server only detects a client
		// disconnect (and cancels r.Context()) once the request body has
		// been consumed, so an unread body would wedge this handler — and
		// the test server's Close — forever.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	case Die:
		panic(http.ErrAbortHandler)
	case Truncate:
		rec := httptest.NewRecorder()
		p.backend.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		body := rec.Body.Bytes()
		_, _ = w.Write(body[:len(body)/2])
	default:
		p.backend.ServeHTTP(w, r)
	}
}
