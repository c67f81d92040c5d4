package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
)

func postShard(t *testing.T, ts *httptest.Server, req wire.ShardRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postShardRaw(t, ts, body)
}

func postShardRaw(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestShardEndpoint: the worker half of distributed mining serves one
// pair-range shard with per-pair outcomes in the shard's canonical order.
func TestShardEndpoint(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	r := plantedRelation(t)
	if _, err := mgr.Registry().Add("d", r); err != nil {
		t.Fatal(err)
	}
	resp, body := postShard(t, ts, wire.ShardRequest{
		Dataset: "d", Epsilon: 0.1, Shard: 0, NumShards: 1,
		NumAttrs: r.NumCols(), Rows: r.NumRows(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res wire.ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	n := r.NumCols()
	wantPairs := n * (n - 1) / 2
	if res.PairCount != wantPairs || len(res.Pairs) != wantPairs {
		t.Fatalf("got %d pairs (pair_count %d), want %d", len(res.Pairs), res.PairCount, wantPairs)
	}
	for i, p := range res.Pairs {
		if p.A < 0 || p.B <= p.A {
			t.Fatalf("pair %d (%d,%d) is not canonical", i, p.A, p.B)
		}
		if _, err := p.ToCore(); err != nil {
			t.Fatalf("pair %d does not round-trip: %v", i, err)
		}
	}
	if res.Trace == nil || len(res.Trace.Phases) == 0 {
		t.Fatal("shard result carries no mine trace")
	}
	if res.Interrupted {
		t.Fatal("uninterrupted shard marked interrupted")
	}
}

// TestShardEndpointErrors pins the shard endpoint's status mapping:
// unknown dataset 404, dataset-shape mismatch 409 (the silent-wrong-
// answer guard), bad shard range 400, negative epsilon 400, a timeout_ms
// too large for a time.Duration 400, and an unknown field 400 naming it.
func TestShardEndpointErrors(t *testing.T) {
	ts, mgr := newTestServer(t, service.Config{Workers: 1})
	r := plantedRelation(t)
	if _, err := mgr.Registry().Add("d", r); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  wire.ShardRequest
		want int
	}{
		{"unknown dataset", wire.ShardRequest{Dataset: "nope", Shard: 0, NumShards: 1, NumAttrs: 5}, http.StatusNotFound},
		{"attr mismatch", wire.ShardRequest{Dataset: "d", Shard: 0, NumShards: 1, NumAttrs: r.NumCols() + 1}, http.StatusConflict},
		{"row mismatch", wire.ShardRequest{Dataset: "d", Shard: 0, NumShards: 1, NumAttrs: r.NumCols(), Rows: r.NumRows() + 7}, http.StatusConflict},
		{"shard out of range", wire.ShardRequest{Dataset: "d", Shard: 3, NumShards: 2, NumAttrs: r.NumCols()}, http.StatusBadRequest},
		{"no shards", wire.ShardRequest{Dataset: "d", Shard: 0, NumShards: 0, NumAttrs: r.NumCols()}, http.StatusBadRequest},
		{"negative epsilon", wire.ShardRequest{Dataset: "d", Epsilon: -1, Shard: 0, NumShards: 1, NumAttrs: r.NumCols()}, http.StatusBadRequest},
		{"timeout overflow", wire.ShardRequest{Dataset: "d", Shard: 0, NumShards: 1, NumAttrs: r.NumCols(), TimeoutMS: 9_300_000_000_000}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postShard(t, ts, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// A coordinator built before the memo exchange was removed still sends
	// memo_seed. The 400 is permanent on the coordinator side, so a
	// mixed-version fleet fails the mine with this message instead of
	// mining with the field silently ignored.
	stale := fmt.Sprintf(`{"dataset":"d","epsilon":0.1,"shard":0,"num_shards":1,"num_attrs":%d,"memo_seed":[]}`, r.NumCols())
	resp, body := postShardRaw(t, ts, []byte(stale))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "memo_seed") {
		t.Errorf("stale memo_seed field: status %d (want 400 naming the field): %s", resp.StatusCode, body)
	}
}
