package dist

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// FuzzValidateShard feeds arbitrary bytes through the shard-result
// boundary — json.Unmarshal into wire.ShardResult, then validateShard
// against a fixed plan. It must never panic, and an accepted result must
// carry the plan's pairs in plan order: all of them, or a prefix when the
// worker reports an interrupt.
func FuzzValidateShard(f *testing.F) {
	c, err := New(Config{Workers: []string{"http://127.0.0.1:1"}, ShardsPerWorker: 2, ProbeInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	const numAttrs = 6
	spec := Spec{Dataset: "d", NumAttrs: numAttrs}
	p := &shardPlan{shard: 1, pairs: core.ShardPairs(numAttrs, 1, c.numShards)}
	if len(p.pairs) < 2 {
		f.Fatalf("plan has %d pairs; the fuzz needs a few", len(p.pairs))
	}

	valid := wire.ShardResult{Dataset: "d", Shard: 1, NumShards: c.numShards, PairCount: len(p.pairs)}
	for _, pr := range p.pairs {
		valid.Pairs = append(valid.Pairs, wire.PairResult{
			A: pr[0], B: pr[1], Seps: []uint64{1 << 5},
			MVDs: []wire.WireMVD{{Key: 1 << 5, Deps: []uint64{1 << pr[0], 1 << pr[1]}}},
		})
	}
	whole, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	prefix := valid
	prefix.Interrupted, prefix.Pairs, prefix.PairCount = true, valid.Pairs[:1], 1
	if b, err := json.Marshal(prefix); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"dataset":"d","shard":1,"num_shards":2,"pairs":[{"a":1,"b":0}],"pair_count":1,"interrupted":true}`))
	f.Add([]byte(`{"pairs":null}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var sr wire.ShardResult
		if json.Unmarshal(raw, &sr) != nil {
			return
		}
		out, err := c.validateShard(&sr, spec, p)
		if err != nil {
			return
		}
		if len(out) > len(p.pairs) || !sr.Interrupted && len(out) != len(p.pairs) {
			t.Fatalf("accepted %d pairs for a plan of %d (interrupted %v)", len(out), len(p.pairs), sr.Interrupted)
		}
		for i, o := range out {
			if o.A != p.pairs[i][0] || o.B != p.pairs[i][1] {
				t.Fatalf("pair %d is (%d,%d), plan says %v", i, o.A, o.B, p.pairs[i])
			}
		}
	})
}
