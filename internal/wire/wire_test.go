package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mvd"
)

// TestPairResultRoundTrip pins the core ↔ wire ↔ JSON round trip the
// distributed tier depends on: what a worker mines and marshals must lift
// back to the identical core value on the coordinator.
func TestPairResultRoundTrip(t *testing.T) {
	orig := core.PairMVDs{
		A:    1,
		B:    4,
		Seps: []bitset.AttrSet{bitset.Of(2), bitset.Of(2, 3)},
		MVDs: []mvd.MVD{
			mvd.MustNew(bitset.Of(2), bitset.Of(0, 1), bitset.Of(3, 4)),
			mvd.MustNew(bitset.Of(2, 3), bitset.Of(1), bitset.Of(0), bitset.Of(4)),
		},
	}
	buf, err := json.Marshal(PairResultFromCore(orig))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var wirePR PairResult
	if err := json.Unmarshal(buf, &wirePR); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back, err := wirePR.ToCore()
	if err != nil {
		t.Fatalf("ToCore: %v", err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the value:\n  orig: %+v\n  back: %+v", orig, back)
	}
}

// TestPairResultToCoreRejectsMalformed pins that corrupted wire data is
// an error, not a malformed MVD entering the merge.
func TestPairResultToCoreRejectsMalformed(t *testing.T) {
	cases := map[string]PairResult{
		"non-canonical pair": {A: 3, B: 1},
		"negative attribute": {A: -1, B: 2},
		"one-dependent mvd":  {A: 0, B: 1, MVDs: []WireMVD{{Key: 4, Deps: []uint64{1}}}},
		"overlapping deps":   {A: 0, B: 1, MVDs: []WireMVD{{Key: 4, Deps: []uint64{3, 2}}}},
	}
	for name, pr := range cases {
		if _, err := pr.ToCore(); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// TestShardResultJSONShape pins the field names external tooling (and
// the CI diff job) depend on.
func TestShardResultJSONShape(t *testing.T) {
	buf, err := json.Marshal(ShardResult{Dataset: "d", Shard: 1, NumShards: 4, PairCount: 0})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"dataset", "shard", "num_shards", "pairs", "pair_count", "elapsed_ms"} {
		if _, ok := m[key]; !ok {
			t.Errorf("ShardResult JSON missing key %q (got %v)", key, m)
		}
	}
}

// TestShardRequestJSONShape pins the request's field names. The worker
// decodes with DisallowUnknownFields, so a renamed field is a 400 on
// every shard of a mixed-version fleet, never a silently dropped option.
func TestShardRequestJSONShape(t *testing.T) {
	buf, err := json.Marshal(ShardRequest{Dataset: "d", Epsilon: 0.1, Shard: 1, NumShards: 4, NumAttrs: 6})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := []string{"dataset", "epsilon", "shard", "num_shards", "num_attrs"}
	for _, key := range want {
		if _, ok := m[key]; !ok {
			t.Errorf("ShardRequest JSON missing key %q (got %v)", key, m)
		}
	}
	if len(m) != len(want) {
		t.Errorf("ShardRequest JSON has keys beyond %v: %s", want, buf)
	}
}
