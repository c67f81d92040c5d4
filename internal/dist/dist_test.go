package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/wire"
)

// testRelations are the determinism-suite datasets: the planted acyclic
// join (exact MVDs), the same with noise (approximate), and the nursery
// reconstruction — mirroring the single-node parallel determinism suite.
func testRelations(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	rels := make(map[string]*relation.Relation)
	planted, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(10, 4, 1), Seed: 11, RootTuples: 12, ExtPerSep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels["planted"] = planted
	noisy, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(9, 4, 2), Seed: 5, RootTuples: 10, ExtPerSep: 2, NoiseCells: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels["planted-noisy"] = noisy
	rels["nursery"] = datagen.Nursery().Head(1200)
	return rels
}

// newWorker boots one in-process maimond worker with the given datasets
// registered, fronted by a fault-injection proxy.
func newWorker(t *testing.T, rels map[string]*relation.Relation, script disttest.Script) (*httptest.Server, *disttest.Proxy) {
	return newWorkerOpts(t, rels, script)
}

// newWorkerOpts is newWorker with session options applied to every
// dataset the worker registers — how the budgeted-fleet suite starves
// worker caches without touching the coordinator.
func newWorkerOpts(t *testing.T, rels map[string]*relation.Relation, script disttest.Script, opts ...maimon.Option) (*httptest.Server, *disttest.Proxy) {
	t.Helper()
	var proxy *disttest.Proxy
	ts := serveWorker(t, rels, func(h http.Handler) http.Handler {
		proxy = disttest.New(h, script)
		return proxy
	}, opts...)
	return ts, proxy
}

// serveWorker boots one in-process maimond worker with the given datasets
// registered, its handler wrapped by wrap.
func serveWorker(t *testing.T, rels map[string]*relation.Relation, wrap func(http.Handler) http.Handler, opts ...maimon.Option) *httptest.Server {
	t.Helper()
	reg := service.NewRegistry(opts...)
	for name, r := range rels {
		if _, err := reg.Add(name, r); err != nil {
			t.Fatal(err)
		}
	}
	mgr := service.NewManager(reg, service.Config{Workers: 2, MineWorkers: 2})
	ts := httptest.NewServer(wrap(service.NewServer(mgr)))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts
}

// newCoordinator builds a coordinator over the given workers with fast
// test timings and no background prober; overrides tweak the config.
// Its backoff sleeps a hundredth of the coordinator's delay (1 ms for
// the first retry).
func newCoordinator(t *testing.T, urls []string, mut func(*dist.Config)) *dist.Coordinator {
	t.Helper()
	cfg := dist.Config{
		Workers:       urls,
		ProbeInterval: -1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			select {
			case <-time.After(d / 100):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
	cfg.SetShardsPerWorker(2)
	if mut != nil {
		mut(&cfg)
	}
	c, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// singleNode mines r locally for the golden comparison result.
func singleNode(t *testing.T, r *relation.Relation, eps float64) *core.MVDResult {
	t.Helper()
	s, err := maimon.Open(r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.MineMVDs(context.Background(), maimon.WithEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameResult(t *testing.T, label string, got, want *core.MVDResult) {
	t.Helper()
	if len(got.MVDs) != len(want.MVDs) {
		t.Fatalf("%s: %d MVDs distributed vs %d single-node", label, len(got.MVDs), len(want.MVDs))
	}
	for i := range want.MVDs {
		if !got.MVDs[i].Equal(want.MVDs[i]) {
			t.Fatalf("%s: MVD %d differs: %v vs %v", label, i, got.MVDs[i], want.MVDs[i])
		}
	}
	if !reflect.DeepEqual(got.MinSeps, want.MinSeps) {
		t.Fatalf("%s: minimal separators differ", label)
	}
}

// schemesJSON runs phase 2 locally over an already-merged Mε and returns
// the schemes as JSON — the byte-identity witness that a distributed mine
// yields the single-node schemes, not just the single-node MVDs.
func schemesJSON(t *testing.T, r *relation.Relation, mvds []maimon.MVD, eps float64) []byte {
	t.Helper()
	s, err := maimon.Open(r)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := s.SchemesFromMVDs(context.Background(), mvds, maimon.WithEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, schemes)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDistributedDeterminismAcrossWorkers is the tentpole contract: a
// mine sharded across 1, 2 or 3 workers merges to exactly the
// single-node result — MVDs (order included), per-pair minimal
// separators, and byte-identical schemes — on every determinism-suite
// dataset at exact and approximate ε. (The name matches the race-enabled
// CI test filter.)
func TestDistributedDeterminismAcrossWorkers(t *testing.T) {
	rels := testRelations(t)
	type golden struct {
		res     *core.MVDResult
		schemes []byte
	}
	epsilons := []float64{0, 0.1}
	want := make(map[string][]golden)
	for name, r := range rels {
		for _, eps := range epsilons {
			s, err := maimon.Open(r)
			if err != nil {
				t.Fatal(err)
			}
			schemes, res, err := s.MineSchemes(context.Background(), maimon.WithEpsilon(eps))
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], golden{res: res, schemes: mustJSON(t, schemes)})
		}
	}
	for _, n := range []int{1, 2, 3} {
		urls := make([]string, n)
		for i := range urls {
			ts, _ := newWorker(t, rels, nil)
			urls[i] = ts.URL
		}
		coord := newCoordinator(t, urls, nil)
		for name, r := range rels {
			for k, eps := range epsilons {
				label := fmt.Sprintf("workers=%d %s eps=%v", n, name, eps)
				got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
					Dataset:      name,
					Epsilon:      eps,
					ShardWorkers: 2,
					NumAttrs:     r.NumCols(),
					Rows:         r.NumRows(),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rep.Shards < 1 || rep.Dispatches < rep.Shards {
					t.Fatalf("%s: implausible report %+v", label, rep)
				}
				requireSameResult(t, label, got, want[name][k].res)
				if sj := schemesJSON(t, r, got.MVDs, eps); !bytes.Equal(sj, want[name][k].schemes) {
					t.Fatalf("%s: schemes differ from single-node", label)
				}
			}
		}
	}
}

// TestDistributedBudgetedFleetDeterminism starves every worker in a
// three-node fleet — tight PLI and entropy-memo budgets — and requires
// the merged result to stay byte-identical to an unbudgeted single-node
// mine. Worker-side eviction and memo churn are pure cost: whatever each
// shard recomputes locally, the merge must not be able to tell. (The name
// matches the race-enabled eviction-determinism filter of the
// memory-pressure CI job.)
func TestDistributedBudgetedFleetDeterminism(t *testing.T) {
	rels := testRelations(t)
	starved := []maimon.Option{
		maimon.WithMemoryBudget(16 << 10),
		maimon.WithEntropyBudget(2 << 10),
	}
	urls := make([]string, 3)
	for i := range urls {
		ts, _ := newWorkerOpts(t, rels, nil, starved...)
		urls[i] = ts.URL
	}
	coord := newCoordinator(t, urls, nil)
	for name, r := range rels {
		for _, eps := range []float64{0, 0.1} {
			want := singleNode(t, r, eps)
			got, _, err := coord.MineMVDs(context.Background(), dist.Spec{
				Dataset:      name,
				Epsilon:      eps,
				ShardWorkers: 2,
				NumAttrs:     r.NumCols(),
				Rows:         r.NumRows(),
			})
			if err != nil {
				t.Fatalf("%s eps=%v: %v", name, eps, err)
			}
			requireSameResult(t, name+" starved fleet", got, want)
		}
	}
}

// TestDistributedMemoExchangeDeterminismWorkers is the worker memo-budget
// matrix: cold {1,2,3}-worker fleets × worker entropy-memo budget
// {unlimited, ⅛ of a single-node mine's memo} must all merge to the
// single-node MVD result and byte-identical schemes. Under the tight
// budget every worker evicts and recomputes entropies, and none of it may
// be visible in any mined output. The name predates the removal of the
// cross-worker memo exchange, which was this matrix's third axis; it also
// matches both the race-enabled and the memory-pressure CI test filters.
func TestDistributedMemoExchangeDeterminismWorkers(t *testing.T) {
	all := testRelations(t)
	rels := map[string]*relation.Relation{"planted": all["planted"], "nursery": all["nursery"]}
	const eps = 0.1

	type golden struct {
		res     *core.MVDResult
		schemes []byte
		memoB   int64
	}
	want := make(map[string]golden)
	for name, r := range rels {
		s, err := maimon.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.MineMVDs(context.Background(), maimon.WithEpsilon(eps))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = golden{res: res, schemes: schemesJSON(t, r, res.MVDs, eps), memoB: s.Stats().MemoBytes}
	}

	for _, n := range []int{1, 2, 3} {
		for _, starve := range []bool{false, true} {
			for name, r := range rels {
				label := fmt.Sprintf("workers=%d starved=%v %s", n, starve, name)
				var opts []maimon.Option
				if starve {
					opts = append(opts, maimon.WithEntropyBudget(want[name].memoB/8))
				}
				// Fresh, cold fleets per cell: a warm worker memo would
				// mask what the budget leaves to recompute.
				urls := make([]string, n)
				for i := range urls {
					ts, _ := newWorkerOpts(t, rels, nil, opts...)
					urls[i] = ts.URL
				}
				coord := newCoordinator(t, urls, nil)
				got, _, err := coord.MineMVDs(context.Background(), dist.Spec{
					Dataset: name, Epsilon: eps, ShardWorkers: 2,
					NumAttrs: r.NumCols(), Rows: r.NumRows(),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameResult(t, label, got, want[name].res)
				if sj := schemesJSON(t, r, got.MVDs, eps); !bytes.Equal(sj, want[name].schemes) {
					t.Fatalf("%s: schemes differ from single-node", label)
				}
			}
		}
	}
}

// TestRetryBackoffPinnedWorkers pins the retry schedule: a shard failing
// twice with 500 is re-dispatched with exponential backoff (100 ms, then
// 200 ms) and then succeeds, and the merged result is still exact.
func TestRetryBackoffPinnedWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, proxy := newWorker(t, rels, disttest.FailFirst(2, disttest.Fail500))

	var mu sync.Mutex
	var slept []time.Duration
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1) // one shard → one retry chain to pin
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		}
	})
	r := rels["planted"]
	want := singleNode(t, r, 0.1)
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "planted", got, want)
	if rep.Retries != 2 || rep.Dispatches != 3 {
		t.Fatalf("want 2 retries over 3 dispatches, got %+v", rep)
	}
	if proxy.Calls() != 3 {
		t.Fatalf("worker saw %d shard calls, want 3", proxy.Calls())
	}
	mu.Lock()
	defer mu.Unlock()
	wantSleeps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if !reflect.DeepEqual(slept, wantSleeps) {
		t.Fatalf("backoff schedule %v, want %v", slept, wantSleeps)
	}
}

// TestTruncatedResponseRetriedWorkers: a torn shard response (body cut in
// half) must be detected and re-dispatched, never merged.
func TestTruncatedResponseRetriedWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, _ := newWorker(t, rels, disttest.FailFirst(1, disttest.Truncate))
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1)
		c.Sleep = func(context.Context, time.Duration) error { return nil }
	})
	r := rels["planted"]
	want := singleNode(t, r, 0.1)
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "planted", got, want)
	if rep.Retries < 1 {
		t.Fatalf("truncated response was not retried: %+v", rep)
	}
}

// TestDeadWorkerFailsWithClearError: with the only worker dropping every
// connection, the mine must fail after its attempt budget (4 for one
// worker) with an error naming the shard and attempt count — not hang and
// not return a result.
func TestDeadWorkerFailsWithClearError(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, _ := newWorker(t, rels, disttest.Always(disttest.Die))
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1)
		c.Sleep = func(context.Context, time.Duration) error { return nil }
	})
	r := rels["planted"]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := coord.MineMVDs(ctx, dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if got != nil {
		t.Fatal("dead fleet returned a result")
	}
	if err == nil || ctx.Err() != nil {
		t.Fatalf("want prompt failure, got err=%v ctxErr=%v", err, ctx.Err())
	}
	msg := err.Error()
	for _, frag := range []string{"shard", "4 attempts"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// TestWorkerDeathRedispatchWorkers is the kill-one-worker acceptance
// test: one of two workers dies after serving its first shard; the
// coordinator marks it unhealthy, re-dispatches its remaining shards to
// the survivor, and the merged result is still byte-identical.
func TestWorkerDeathRedispatchWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"nursery": testRelations(t)["nursery"]}
	alive, _ := newWorker(t, rels, nil)
	dying, dyingProxy := newWorker(t, rels, disttest.DieAfter(1))
	coord := newCoordinator(t, []string{alive.URL, dying.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(3)
		c.Sleep = func(context.Context, time.Duration) error { return nil }
	})
	r := rels["nursery"]
	want := singleNode(t, r, 0.1)
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "nursery", Epsilon: 0.1, ShardWorkers: 2, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "nursery", got, want)
	if dyingProxy.Calls() < 2 {
		t.Fatalf("dying worker saw %d calls; the test never exercised its death", dyingProxy.Calls())
	}
	if rep.Retries < 1 {
		t.Fatalf("worker death caused no re-dispatch: %+v", rep)
	}
}

// datasetGate hangs shard requests for one dataset and forwards the rest,
// so a test can wedge one mine's traffic while another's flows.
type datasetGate struct {
	backend http.Handler
	hangOn  string
}

func (g *datasetGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/shards") {
		body, _ := io.ReadAll(r.Body)
		var req wire.ShardRequest
		_ = json.Unmarshal(body, &req)
		if req.Dataset == g.hangOn {
			<-r.Context().Done()
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	g.backend.ServeHTTP(w, r)
}

// TestWedgedMineIsolationWorkers: a mine whose every shard hangs must not
// starve another mine on the same coordinator and worker, which completes
// while the first is still stuck — each mine drains its own queue
// through its own lanes.
func TestWedgedMineIsolationWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{
		"wedged": testRelations(t)["planted"],
		"fast":   testRelations(t)["planted"],
	}
	ts := serveWorker(t, rels, func(h http.Handler) http.Handler {
		return &datasetGate{backend: h, hangOn: "wedged"}
	})
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(4)
	})
	r := rels["wedged"]

	wedgedCtx, cancelWedged := context.WithCancel(context.Background())
	defer cancelWedged()
	wedgedDone := make(chan error, 1)
	go func() {
		_, _, err := coord.MineMVDs(wedgedCtx, dist.Spec{
			Dataset: "wedged", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
		})
		wedgedDone <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, _, err := coord.MineMVDs(ctx, dist.Spec{
		Dataset: "fast", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	}); err != nil {
		t.Fatalf("mine starved behind a wedged mine: %v", err)
	}
	cancelWedged()
	if err := <-wedgedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged mine: want context.Canceled, got %v", err)
	}
}

// mineBarrier holds every shard request until requests from want
// distinct mines (told apart by ε) have arrived, or until timeout after
// the first — so a test can hold that many mines in flight at once.
type mineBarrier struct {
	want    int
	timeout time.Duration

	mu      sync.Mutex
	seen    map[float64]bool
	release chan struct{}
	once    sync.Once
}

func newMineBarrier(want int, timeout time.Duration) *mineBarrier {
	return &mineBarrier{want: want, timeout: timeout, seen: make(map[float64]bool), release: make(chan struct{})}
}

func (b *mineBarrier) open() { b.once.Do(func() { close(b.release) }) }

func (b *mineBarrier) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/shards") {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req wire.ShardRequest
			_ = json.Unmarshal(body, &req)
			b.mu.Lock()
			if len(b.seen) == 0 {
				time.AfterFunc(b.timeout, b.open)
			}
			b.seen[req.Epsilon] = true
			if len(b.seen) >= b.want {
				b.open()
			}
			b.mu.Unlock()
			select {
			case <-b.release:
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestJobPoolBoundsDistributedMinesWorkers: the manager's job pool is the
// one bound on concurrent distributed mines. With nine pool workers and
// nine distributed jobs held in flight together, every job ends done —
// the coordinator adds no second gate that fails a job the pool accepted.
func TestJobPoolBoundsDistributedMinesWorkers(t *testing.T) {
	const jobs = 9
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	barrier := newMineBarrier(jobs, 3*time.Second)
	w1 := serveWorker(t, rels, barrier.wrap)
	w2 := serveWorker(t, rels, barrier.wrap)
	coord := newCoordinator(t, []string{w1.URL, w2.URL}, nil)

	reg := service.NewRegistry()
	if _, err := reg.Add("planted", rels["planted"]); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: jobs, Coordinator: coord})
	t.Cleanup(mgr.Close)

	var submitted []*service.Job
	for i := range jobs {
		// Distinct epsilons keep the result cache out of the way.
		job, err := mgr.Submit(wire.JobRequest{
			Dataset: "planted", Mode: wire.ModeMVDs, Epsilon: 0.05 + 0.01*float64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, job)
	}
	for _, job := range submitted {
		select {
		case <-job.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", job.ID())
		}
		if st := job.Status(); st.State != wire.StateDone {
			t.Errorf("job %s (ε=%v): state %s, error %q", job.ID(), st.Epsilon, st.State, st.Error)
		}
	}
}

// TestFleetJobStatesUnderTimeoutWorkers: a distributed job with a
// timeout_ms ends by what stopped it, read from the job's own timeout,
// not from the error's name. A fleet whose shard attempts run out fails
// the job; a fleet the timeout cuts ends it done and interrupted.
func TestFleetJobStatesUnderTimeoutWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	for _, tc := range []struct {
		name        string
		action      disttest.Action
		timeoutMS   int64
		state       wire.State
		interrupted bool
	}{
		{"dead fleet", disttest.Die, 60_000, wire.StateFailed, false},
		{"hung fleet", disttest.Hang, 200, wire.StateDone, true},
	} {
		ts, _ := newWorker(t, rels, disttest.Always(tc.action))
		coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
			c.SetShardsPerWorker(1)
			c.Sleep = func(context.Context, time.Duration) error { return nil }
		})
		reg := service.NewRegistry()
		if _, err := reg.Add("planted", rels["planted"]); err != nil {
			t.Fatal(err)
		}
		mgr := service.NewManager(reg, service.Config{Workers: 1, Coordinator: coord})
		t.Cleanup(mgr.Close)
		job, err := mgr.Submit(wire.JobRequest{
			Dataset: "planted", Mode: wire.ModeMVDs, Epsilon: 0.1, TimeoutMS: tc.timeoutMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-job.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: job did not finish", tc.name)
		}
		res, _ := job.Result()
		if st := job.Status(); st.State != tc.state || (res != nil && res.Interrupted) != tc.interrupted {
			t.Errorf("%s: state %s (error %q), interrupted %v; want %s, interrupted %v",
				tc.name, st.State, st.Error, res != nil && res.Interrupted, tc.state, tc.interrupted)
		}
	}
}

// TestUnknownDatasetPermanentWorkers: a 404 from the worker is permanent
// — the mine fails on the first attempt with the worker's message, no
// retries.
func TestUnknownDatasetPermanentWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, _ := newWorker(t, rels, nil)
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1)
		c.Sleep = func(context.Context, time.Duration) error { return nil }
	})
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "no-such-dataset", Epsilon: 0.1, NumAttrs: 5,
	})
	if got != nil || err == nil {
		t.Fatalf("want permanent failure, got res=%v err=%v", got, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "404") {
		t.Fatalf("error %q does not carry the worker's 404", err)
	}
	if rep.Retries != 0 {
		t.Fatalf("permanent failure was retried: %+v", rep)
	}
}

// flightCounter fronts any number of workers and records, per shard
// number, the most shard RPCs it ever saw in flight at once across all of
// them.
type flightCounter struct {
	mu       sync.Mutex
	inflight map[int]int
	peak     map[int]int
}

func newFlightCounter() *flightCounter {
	return &flightCounter{inflight: make(map[int]int), peak: make(map[int]int)}
}

func (f *flightCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/shards") {
			h.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req wire.ShardRequest
		_ = json.Unmarshal(body, &req)
		f.mu.Lock()
		f.inflight[req.Shard]++
		f.peak[req.Shard] = max(f.peak[req.Shard], f.inflight[req.Shard])
		f.mu.Unlock()
		defer func() {
			f.mu.Lock()
			f.inflight[req.Shard]--
			f.mu.Unlock()
		}()
		h.ServeHTTP(w, r)
	})
}

// TestEachShardSentOnceWorkers: a fault-free mine sends every shard
// exactly once at 1, 2 and 3 workers, and no shard is ever in flight on
// two workers at the same time.
func TestEachShardSentOnceWorkers(t *testing.T) {
	rels := testRelations(t)
	for _, n := range []int{1, 2, 3} {
		fc := newFlightCounter()
		urls := make([]string, n)
		for i := range urls {
			urls[i] = serveWorker(t, rels, fc.wrap).URL
		}
		coord := newCoordinator(t, urls, nil)
		for name, r := range rels {
			label := fmt.Sprintf("workers=%d %s", n, name)
			_, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
				Dataset: name, Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rep.Dispatches != rep.Shards || rep.Retries != 0 {
				t.Fatalf("%s: %d dispatches (%d retries) for %d shards", label, rep.Dispatches, rep.Retries, rep.Shards)
			}
		}
		fc.mu.Lock()
		for shard, peak := range fc.peak {
			if peak != 1 {
				t.Errorf("workers=%d: shard %d was in flight %d times at once", n, shard, peak)
			}
		}
		fc.mu.Unlock()
	}
}

// TestFailingWorkerSidelinedWorkers: a worker that answers a shard with
// 500 while its readiness probe stays 200 is sidelined by that failure,
// so it is sent no shard afterwards, every retry lands on the healthy
// worker, and the mine succeeds under the default attempt budget and
// backoff. In the second case the worker's other in-flight shard
// succeeds after the failure; that success began before the failure, so
// it must not bring the worker back. The healthy worker is slow, so the
// queue is never empty when a failed shard rejoins it. Both orders are
// made by events, not by the clock: the first shard is answered only
// once the worker's second lane has sent its shard, and "afterwards"
// means after the coordinator begins its first retry backoff (it marks
// the worker unhealthy just before) — the failing worker's dispatch
// count then must be its final count.
func TestFailingWorkerSidelinedWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	r := rels["planted"]
	want := singleNode(t, r, 0.1)
	for name, failCall := range map[string]func(call int) bool{
		"always 500":            func(int) bool { return true },
		"500 then slow success": func(call int) bool { return call == 1 },
	} {
		good, goodProxy := newWorker(t, rels, func(int) disttest.Delayed {
			return disttest.Delayed{Sleep: 100 * time.Millisecond, Then: disttest.Pass}
		})
		var mu sync.Mutex
		calls, failed := 0, 0
		second := make(chan struct{})
		bad := serveWorker(t, rels, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasSuffix(r.URL.Path, "/shards") {
					h.ServeHTTP(w, r)
					return
				}
				mu.Lock()
				calls++
				call := calls
				if call == 2 {
					close(second)
				}
				fail := failCall(call)
				if fail {
					failed++
				}
				mu.Unlock()
				if call == 1 {
					// Answer the first shard once the worker's other lane
					// has sent its own: that request then began before the
					// failure, whatever the scheduler does.
					select {
					case <-second:
					case <-time.After(10 * time.Second):
					}
				}
				if fail {
					http.Error(w, "injected failure", http.StatusInternalServerError)
					return
				}
				time.Sleep(400 * time.Millisecond)
				h.ServeHTTP(w, r)
			})
		})
		reg := obs.NewRegistry()
		badDispatches := reg.Counter("maimond_shard_dispatches_total",
			"Shard RPCs sent, by worker (includes retries).", obs.L("worker", bad.URL))
		sidelinedAt := -1.0 // bad's dispatches when it was first marked unhealthy
		coord := newCoordinator(t, []string{bad.URL, good.URL}, func(c *dist.Config) {
			c.SetShardsPerWorker(8)
			c.Registry = reg
			c.Sleep = func(ctx context.Context, d time.Duration) error { // the coordinator's own backoff
				mu.Lock()
				if sidelinedAt < 0 {
					sidelinedAt = badDispatches.Value()
				}
				mu.Unlock()
				select {
				case <-time.After(d):
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		})
		got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
			Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameResult(t, name, got, want)
		mu.Lock()
		late := int(badDispatches.Value() - sidelinedAt)
		if failed < 1 || late > 0 || rep.Retries != failed || goodProxy.Calls()+calls-failed != rep.Shards {
			t.Fatalf("%s: failing worker took %d shards (%d failed, %d sent after it was sidelined), healthy worker %d; report %+v",
				name, calls, failed, late, goodProxy.Calls(), rep)
		}
		mu.Unlock()
	}
}

// TestShardTakenBeforeFailureKeepsWorkerSidelinedWorkers: a shard a lane
// took while its worker was healthy, but whose request left only after
// another of the worker's shards failed, must not bring the worker back
// when it succeeds — the lane's decision to send it predates the
// failure. Worker X's first shard is held at X until X's second lane has
// taken the other shard (a retry after Y's 500) and stalled before
// sending it; then X's first shard fails, and the stalled request is let
// go and succeeds. X must still be unhealthy when that success is
// merged.
func TestShardTakenBeforeFailureKeepsWorkerSidelinedWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	r := rels["planted"]
	want := singleNode(t, r, 0.1)
	// failFirst fails a worker's first shard with 500 once release is
	// closed, after signalling that it arrived; later shards pass.
	failFirst := func(arrived, release chan struct{}) func(http.Handler) http.Handler {
		var calls atomic.Int64
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasSuffix(r.URL.Path, "/shards") || calls.Add(1) > 1 {
					h.ServeHTTP(w, r)
					return
				}
				close(arrived)
				select {
				case <-release:
					http.Error(w, "injected failure", http.StatusInternalServerError)
				case <-r.Context().Done():
				}
			})
		}
	}
	xArrived, xFail := make(chan struct{}), make(chan struct{})
	yArrived, yFail := make(chan struct{}), make(chan struct{})
	x := serveWorker(t, rels, failFirst(xArrived, xFail))
	y := serveWorker(t, rels, failFirst(yArrived, yFail))

	reg := obs.NewRegistry()
	xDispatches := reg.Counter("maimond_shard_dispatches_total",
		"Shard RPCs sent, by worker (includes retries).", obs.L("worker", x.URL))
	checked := make(chan struct{})
	var sleeps atomic.Int64
	coord := newCoordinator(t, []string{x.URL, y.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1) // two shards: X's first lane takes one, Y's the other
		c.Registry = reg
		c.Sleep = func(ctx context.Context, _ time.Duration) error {
			if sleeps.Add(1) == 2 {
				// X's own retry waits until X's health is read, so no
				// request sent after X's failure can restore X first.
				select {
				case <-checked:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		}
	})
	var xHealthyAtMerge atomic.Int64 // 0 unread, 1 unhealthy, 2 healthy
	type outcome struct {
		res *core.MVDResult
		err error
	}
	done := make(chan outcome, 1)
	// On an early failure the cleanup ends the mine and lets go of any
	// RPC still held, so no lane or handler outlives the test.
	ctx, cancel := context.WithCancel(context.Background())
	var release func()
	t.Cleanup(func() {
		cancel()
		if release != nil {
			release()
		}
	})
	go func() {
		res, _, err := coord.MineMVDs(ctx, dist.Spec{
			Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
			OnShard: func(p dist.ShardProgress) {
				if p.ShardsDone == 1 && xHealthyAtMerge.Load() == 0 {
					xHealthyAtMerge.Store(1)
					if coord.Healthy(x.URL) {
						xHealthyAtMerge.Store(2)
					}
					close(checked)
				}
			},
		})
		done <- outcome{res, err}
	}()
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	closed := func(c chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	wait("both first shards to arrive", func() bool { return closed(xArrived) && closed(yArrived) })
	release = coord.HoldRPCs(x.URL)
	close(yFail) // Y's shard goes back on the queue; only X's idle lane may take it
	wait("X's second lane to take Y's shard", func() bool { return xDispatches.Value() == 2 })
	close(xFail)
	wait("X's failure to be recorded", func() bool { return !coord.Healthy(x.URL) })
	release()
	release = nil
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	requireSameResult(t, "planted", out.res, want)
	if got := xHealthyAtMerge.Load(); got != 1 {
		t.Fatalf("worker healthy after a success whose shard was taken before its failure (state %d)", got)
	}
}

// TestSlowProbeKeepsShardsWorkers: two failed readiness probes in a row
// while a shard is running mark the worker unhealthy but do not abort the
// shard, so it is sent once.
func TestSlowProbeKeepsShardsWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	var mu sync.Mutex
	probes := 0
	ts := serveWorker(t, rels, func(h http.Handler) http.Handler {
		shards := disttest.New(h, func(int) disttest.Delayed {
			return disttest.Delayed{Sleep: 400 * time.Millisecond, Then: disttest.Pass}
		})
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/readyz") && shards.Calls() > 0 {
				mu.Lock()
				fail := probes < 2
				probes++
				mu.Unlock()
				if fail {
					http.Error(w, "slow", http.StatusServiceUnavailable)
					return
				}
			}
			shards.ServeHTTP(w, r)
		})
	})
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(1)
		c.ProbeInterval = 50 * time.Millisecond
	})
	r := rels["planted"]
	_, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if probes < 3 {
		t.Fatalf("only %d probes ran after the shard started; the test never exercised a recovery", probes)
	}
	if rep.Dispatches != 1 || rep.Retries != 0 {
		t.Fatalf("a slow probe aborted the shard: %+v", rep)
	}
}

// TestHungWorkerLosesShardsWorkers is the hung-worker acceptance test: a
// worker that hangs its shard RPCs, and its readiness probe once it has
// taken a shard, is marked unhealthy by the prober, which aborts its
// in-flight RPCs after failed probes in a row; their shards go back on
// the queue, the healthy worker finishes them, and the merged result is
// still single-node's.
func TestHungWorkerLosesShardsWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	fast, fastProxy := newWorker(t, rels, nil)
	hung := serveWorker(t, rels, func(h http.Handler) http.Handler {
		shards := disttest.New(h, disttest.Always(disttest.Hang))
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/readyz") && shards.Calls() > 0 {
				<-r.Context().Done()
				return
			}
			shards.ServeHTTP(w, r)
		})
	})
	coord := newCoordinator(t, []string{fast.URL, hung.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(3)
		c.ProbeInterval = 50 * time.Millisecond
	})
	r := rels["planted"]
	want := singleNode(t, r, 0.1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, rep, err := coord.MineMVDs(ctx, dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "planted", got, want)
	if rep.Retries < 1 {
		t.Fatalf("the hung worker took no shard, so nothing was aborted: %+v", rep)
	}
	if fastProxy.Calls() < rep.Shards {
		t.Fatalf("healthy worker served %d calls for %d shards", fastProxy.Calls(), rep.Shards)
	}
}

// TestSlowWorkerServesFewerShardsWorkers: with one worker 300 ms slower
// per shard, the fast worker pulls more shards off the queue, and no
// shard is sent twice.
func TestSlowWorkerServesFewerShardsWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	r := rels["planted"]
	fast, fastProxy := newWorker(t, rels, nil)
	slow, slowProxy := newWorker(t, rels, func(int) disttest.Delayed {
		return disttest.Delayed{Sleep: 300 * time.Millisecond, Then: disttest.Pass}
	})
	coord := newCoordinator(t, []string{fast.URL, slow.URL}, func(c *dist.Config) {
		c.SetShardsPerWorker(8)
	})
	want := singleNode(t, r, 0.1)
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "planted", got, want)
	if rep.Dispatches != rep.Shards {
		t.Fatalf("%d dispatches for %d shards", rep.Dispatches, rep.Shards)
	}
	if fastProxy.Calls() <= slowProxy.Calls() {
		t.Fatalf("fast worker served %d shards, slow worker %d", fastProxy.Calls(), slowProxy.Calls())
	}
}

// TestFinalShardSnapshotWorkers: the last progress snapshot of a mine
// reports every shard and pair done — snapshots arrive in order, and one
// is sent after the last lane stops — and so does a finished coordinator
// job's status.
func TestFinalShardSnapshotWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	r := rels["planted"]
	urls := make([]string, 3)
	for i := range urls {
		ts, _ := newWorker(t, rels, nil)
		urls[i] = ts.URL
	}
	coord := newCoordinator(t, urls, nil)
	for k := 0; k < 20; k++ {
		var mu sync.Mutex
		var last dist.ShardProgress
		_, _, err := coord.MineMVDs(context.Background(), dist.Spec{
			Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
			OnShard: func(p dist.ShardProgress) {
				// A slow callback widens the window in which snapshots
				// delivered out of order would leave a stale one last.
				time.Sleep(time.Millisecond)
				mu.Lock()
				last = p
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("mine %d: %v", k, err)
		}
		mu.Lock()
		if last.ShardsDone != last.ShardsTotal || last.PairsDone != last.PairsTotal {
			t.Fatalf("mine %d: last snapshot %+v", k, last)
		}
		mu.Unlock()
	}

	reg := service.NewRegistry()
	if _, err := reg.Add("planted", r); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 1, Coordinator: coord})
	defer mgr.Close()
	job, err := mgr.Submit(wire.JobRequest{Dataset: "planted", Epsilon: 0.1, Mode: wire.ModeMVDs})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if st.State != wire.StateDone || st.Dist == nil {
		t.Fatalf("coordinator job: %+v", st)
	}
	if st.Dist.ShardsDone != st.Dist.ShardsTotal || st.Progress.PairsDone != st.Progress.PairsTotal {
		t.Fatalf("finished job reports shards %d/%d, pairs %d/%d", st.Dist.ShardsDone, st.Dist.ShardsTotal,
			st.Progress.PairsDone, st.Progress.PairsTotal)
	}
}

// TestCoordinatorMetricFamiliesWorkers: a coordinator's /metrics, after
// a schemes job over HTTP, carries exactly these families — the
// manager's plus the fan-out series. A family added or removed must be
// added to or removed from this list, and to README's Observability
// table.
func TestCoordinatorMetricFamiliesWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	w1, _ := newWorker(t, rels, nil)
	w2, _ := newWorker(t, rels, nil)
	tel := service.NewTelemetry(obs.NewRegistry(), nil)
	coord := newCoordinator(t, []string{w1.URL, w2.URL}, func(c *dist.Config) {
		c.Registry = tel.Registry()
	})
	reg := service.NewRegistry()
	if _, err := reg.Add("planted", rels["planted"]); err != nil {
		t.Fatal(err)
	}
	mgr := service.NewManager(reg, service.Config{Workers: 2, Telemetry: tel, Coordinator: coord})
	ts := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"dataset":"planted","epsilon":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st wire.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	job, ok := mgr.Job(st.ID)
	if !ok {
		t.Fatalf("job %q not found", st.ID)
	}
	<-job.Done()
	if st := job.Status(); st.State != wire.StateDone {
		t.Fatalf("job: state %s, error %q", st.State, st.Error)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range e.Families {
		got = append(got, name)
	}
	slices.Sort(got)
	want := []string{
		"maimon_entropy_h_cached",
		"maimon_entropy_h_calls",
		"maimon_entropy_mi_calls",
		"maimon_pli_bytes_live",
		"maimon_pli_bytes_pinned",
		"maimon_pli_bytes_touched",
		"maimon_pli_entries",
		"maimon_pli_entropy_only",
		"maimon_pli_evictions",
		"maimon_pli_hits",
		"maimon_pli_intersects",
		"maimon_pli_misses",
		"maimon_spill_bytes",
		"maimon_spill_demotions_total",
		"maimon_spill_hits_total",
		"maimon_spill_read_seconds",
		"maimon_stage_calls_total",
		"maimon_stage_cpu_seconds_total",
		"maimond_build_info",
		"maimond_datasets_registered",
		"maimond_entropy_memo_bytes",
		"maimond_entropy_memo_evictions_total",
		"maimond_http_requests_total",
		"maimond_job_duration_seconds",
		"maimond_jobs_completed_total",
		"maimond_jobs_queue_depth",
		"maimond_jobs_running",
		"maimond_jobs_submitted_total",
		"maimond_result_cache_hits_total",
		"maimond_result_cache_misses_total",
		"maimond_shard_bytes_merged_total",
		"maimond_shard_dispatches_total",
		"maimond_shard_failures_total",
		"maimond_shard_latency_seconds",
		"maimond_shard_retries_total",
		"maimond_shards_served_total",
		"maimond_worker_healthy",
	}
	if !slices.Equal(got, want) {
		t.Errorf("coordinator /metrics families:\n got %q\nwant %q", got, want)
	}
}

// TestNewLeavesCallerWorkers: New trims worker URLs in its own copy, never
// in the caller's slice.
func TestNewLeavesCallerWorkers(t *testing.T) {
	workers := []string{" http://a:1/ "}
	c, err := dist.New(dist.Config{Workers: workers, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if workers[0] != " http://a:1/ " {
		t.Fatalf("caller's slice rewritten to %q", workers[0])
	}
	if got := c.WorkerURLs(); len(got) != 1 || got[0] != "http://a:1" {
		t.Fatalf("coordinator URLs %q", got)
	}
}
