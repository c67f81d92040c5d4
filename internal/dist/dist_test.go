package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
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
	reg := service.NewRegistry(opts...)
	for name, r := range rels {
		if _, err := reg.Add(name, r); err != nil {
			t.Fatal(err)
		}
	}
	mgr := service.NewManager(reg, service.Config{Workers: 2, MineWorkers: 2})
	proxy := disttest.New(service.NewServer(mgr), script)
	ts := httptest.NewServer(proxy)
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, proxy
}

// newCoordinator builds a coordinator over the given workers with fast
// test timings and no background prober; overrides tweak the config.
func newCoordinator(t *testing.T, urls []string, mut func(*dist.Config)) *dist.Coordinator {
	t.Helper()
	cfg := dist.Config{
		Workers:         urls,
		ShardsPerWorker: 2,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		ProbeInterval:   -1,
	}
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
// twice with 500 is re-dispatched with exponential backoff (base, 2×base)
// and then succeeds, and the merged result is still exact.
func TestRetryBackoffPinnedWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, proxy := newWorker(t, rels, disttest.FailFirst(2, disttest.Fail500))

	var mu sync.Mutex
	var slept []time.Duration
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 1 // one shard → one retry chain to pin
		c.BaseBackoff = 10 * time.Millisecond
		c.MaxBackoff = 80 * time.Millisecond
		c.MaxAttempts = 4
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
	wantSleeps := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
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
		c.ShardsPerWorker = 1
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
// connection, the mine must fail after MaxAttempts with an error naming
// the shard and attempt count — not hang and not return a result.
func TestDeadWorkerFailsWithClearError(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, _ := newWorker(t, rels, disttest.Always(disttest.Die))
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 1
		c.MaxAttempts = 3
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
	for _, frag := range []string{"shard", "3 attempts"} {
		if !strings.Contains(err.Error(), frag) {
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
		c.ShardsPerWorker = 3
		c.HedgeQuantile = -1 // isolate the retry path
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

// TestHedgeFiresOnStragglerWorkers: a worker that hangs on every shard it
// is primary for must be hedged to the healthy worker once enough sibling
// shards have completed to estimate the straggler quantile.
func TestHedgeFiresOnStragglerWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	fast, _ := newWorker(t, rels, nil)
	slow, _ := newWorker(t, rels, disttest.Always(disttest.Hang))
	coord := newCoordinator(t, []string{fast.URL, slow.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 3
		c.HedgeQuantile = 0.5
		c.HedgeMinSamples = 1
		c.HedgeMinDelay = time.Millisecond
		c.MaxAttempts = 2
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
	if rep.Hedges < 1 {
		t.Fatalf("straggler worker was never hedged: %+v", rep)
	}
}

// TestHedgeLoserCompletesWorkers: when the straggler is slow rather than
// dead, the hedge loser also answers; only the winner's pairs may reach
// the merge, so the result stays identical to single-node.
func TestHedgeLoserCompletesWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	r := rels["planted"]
	fast, _ := newWorker(t, rels, nil)
	slow, _ := newWorker(t, rels, func(int) disttest.Delayed {
		return disttest.Delayed{Sleep: 300 * time.Millisecond, Then: disttest.Pass}
	})
	coord := newCoordinator(t, []string{fast.URL, slow.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 3
		c.HedgeQuantile = 0.5
		c.HedgeMinSamples = 1
		c.HedgeMinDelay = time.Millisecond
	})
	want := singleNode(t, r, 0.1)
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "planted", got, want)
	if rep.Hedges < 1 {
		t.Fatalf("slow worker was never hedged: %+v", rep)
	}
}

// TestNewRejectsBadHedgeQuantile: a quantile above 1 would index past the
// sorted latency samples once enough shards complete, and NaN compares
// false with everything, so New refuses both up front. −1 disables
// hedging and stays valid.
func TestNewRejectsBadHedgeQuantile(t *testing.T) {
	for _, q := range []float64{1.5, math.NaN()} {
		c, err := dist.New(dist.Config{Workers: []string{"http://127.0.0.1:1"}, HedgeQuantile: q, ProbeInterval: -1})
		if err == nil {
			c.Close()
			t.Errorf("HedgeQuantile %v: New accepted it", q)
		}
	}
	for _, q := range []float64{0.9, -1} {
		c, err := dist.New(dist.Config{Workers: []string{"http://127.0.0.1:1"}, HedgeQuantile: q, ProbeInterval: -1})
		if err != nil {
			t.Errorf("HedgeQuantile %v: %v", q, err)
			continue
		}
		c.Close()
	}
}

// TestAdmissionControlBusyWorkers: at the MaxMines bound a new mine is
// rejected immediately with ErrBusy, never queued.
func TestAdmissionControlBusyWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, proxy := newWorker(t, rels, disttest.Always(disttest.Hang))
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 1
		c.MaxMines = 1
		c.MaxAttempts = 1
	})
	r := rels["planted"]
	spec := dist.Spec{Dataset: "planted", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows()}

	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.MineMVDs(ctx1, spec)
		done <- err
	}()
	// Wait until the first mine is actually in flight on the worker.
	deadline := time.Now().Add(10 * time.Second)
	for proxy.Calls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first mine never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := coord.MineMVDs(context.Background(), spec); !errors.Is(err, dist.ErrBusy) {
		t.Fatalf("second mine: want ErrBusy, got %v", err)
	}
	cancel1()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("first mine after cancel: want context.Canceled, got %v", err)
	}
}

// tenantGate hangs shard requests for one dataset and forwards the rest,
// so a test can wedge one tenant's traffic while another's flows.
type tenantGate struct {
	backend http.Handler
	hangOn  string
}

func (g *tenantGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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

// TestTenantBudgetIsolationWorkers: a tenant saturating its per-tenant
// in-flight budget on a wedged dataset must not starve another tenant,
// whose mine completes while the first is still stuck.
func TestTenantBudgetIsolationWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{
		"wedged": testRelations(t)["planted"],
		"fast":   testRelations(t)["planted"],
	}
	reg := service.NewRegistry()
	for name, r := range rels {
		if _, err := reg.Add(name, r); err != nil {
			t.Fatal(err)
		}
	}
	mgr := service.NewManager(reg, service.Config{Workers: 2, MineWorkers: 2})
	ts := httptest.NewServer(&tenantGate{backend: service.NewServer(mgr), hangOn: "wedged"})
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 4
		c.MaxMines = 4
		c.MaxInflight = 8
		c.TenantInflight = 1
		c.MaxAttempts = 1
	})
	r := rels["wedged"]

	wedgedCtx, cancelWedged := context.WithCancel(context.Background())
	defer cancelWedged()
	wedgedDone := make(chan error, 1)
	go func() {
		_, _, err := coord.MineMVDs(wedgedCtx, dist.Spec{
			Dataset: "wedged", Tenant: "a", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
		})
		wedgedDone <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, _, err := coord.MineMVDs(ctx, dist.Spec{
		Dataset: "fast", Tenant: "b", Epsilon: 0.1, NumAttrs: r.NumCols(), Rows: r.NumRows(),
	}); err != nil {
		t.Fatalf("tenant b starved behind tenant a's wedged budget: %v", err)
	}
	cancelWedged()
	if err := <-wedgedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged mine: want context.Canceled, got %v", err)
	}
}

// TestUnknownDatasetPermanentWorkers: a 404 from the worker is permanent
// — the mine fails on the first attempt with the worker's message, no
// retries.
func TestUnknownDatasetPermanentWorkers(t *testing.T) {
	rels := map[string]*relation.Relation{"planted": testRelations(t)["planted"]}
	ts, _ := newWorker(t, rels, nil)
	coord := newCoordinator(t, []string{ts.URL}, func(c *dist.Config) {
		c.ShardsPerWorker = 1
		c.Sleep = func(context.Context, time.Duration) error { return nil }
	})
	got, rep, err := coord.MineMVDs(context.Background(), dist.Spec{
		Dataset: "no-such-dataset", Epsilon: 0.1, NumAttrs: 5,
	})
	if got != nil || err == nil {
		t.Fatalf("want permanent failure, got res=%v err=%v", got, err)
	}
	if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error %q does not carry the worker's 404", err)
	}
	if rep.Retries != 0 {
		t.Fatalf("permanent failure was retried: %+v", rep)
	}
}
