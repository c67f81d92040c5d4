package wire

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mvd"
	"repro/internal/obs"
)

// ShardRequest is the body of POST /v1/shards: one pair-range shard of a
// distributed phase-1 mine. The shard does not carry its pair list — both
// sides derive it from (NumAttrs, Shard, NumShards) through the shared
// fmix64 hash policy (core.ShardPairs), so a request stays a few bytes no
// matter how wide the relation is and the two sides cannot disagree about
// which pairs a shard owns.
type ShardRequest struct {
	// Dataset names the dataset, which must be registered on the worker.
	Dataset string `json:"dataset"`
	// Epsilon is the approximation threshold ε ≥ 0 in bits.
	Epsilon float64 `json:"epsilon"`
	// Shard ∈ [0, NumShards) selects which slice of the attribute pairs
	// to mine.
	Shard     int `json:"shard"`
	NumShards int `json:"num_shards"`
	// NumAttrs and Rows are the coordinator's view of the dataset's
	// dimensions. The worker rejects a mismatch (409) rather than mine a
	// same-named dataset with different contents — a silent wrong-answer
	// otherwise.
	NumAttrs int `json:"num_attrs"`
	Rows     int `json:"rows,omitempty"`
	// Workers is the worker-local parallel fan-out for this shard's
	// pairs; 0 applies the worker's own default.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the shard mine on the worker; a timed-out shard
	// returns partial per-pair results with Interrupted set.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WireMVD is one full ε-MVD in wire form. An AttrSet is a uint64 of
// attribute bits, so the sets travel as plain numbers; Deps preserve the
// canonical order mvd.New establishes.
type WireMVD struct {
	Key  uint64   `json:"key"`
	Deps []uint64 `json:"deps"`
}

// PairResult is one attribute pair's mining product: its minimal
// separators and the full ε-MVDs expanded from them, locally deduped in
// discovery order — exactly the per-pair slot the single-node parallel
// pipeline merges, so the coordinator can replay that merge byte for
// byte.
type PairResult struct {
	A    int       `json:"a"`
	B    int       `json:"b"`
	Seps []uint64  `json:"seps,omitempty"`
	MVDs []WireMVD `json:"mvds,omitempty"`
}

// ShardResult is the response of POST /v1/shards.
type ShardResult struct {
	Dataset   string `json:"dataset"`
	Shard     int    `json:"shard"`
	NumShards int    `json:"num_shards"`
	// Pairs holds one entry per pair of the shard, in the shard's
	// canonical pair order. PairCount duplicates len(Pairs) as a
	// truncation tripwire: a response cut short mid-array either fails to
	// decode or disagrees with PairCount, and the coordinator retries.
	Pairs     []PairResult `json:"pairs"`
	PairCount int          `json:"pair_count"`
	// Interrupted marks a shard that hit its deadline: the per-pair
	// results are valid but possibly incomplete.
	Interrupted bool  `json:"interrupted,omitempty"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	// Trace is the worker-side stage-level mine trace of this shard, so
	// the coordinator's /metrics can account the fleet's per-stage work,
	// not just its own.
	Trace *obs.MineTrace `json:"trace,omitempty"`
}

// PairResultFromCore lowers one per-pair mining outcome to wire form.
func PairResultFromCore(p core.PairMVDs) PairResult {
	out := PairResult{A: p.A, B: p.B}
	if len(p.Seps) > 0 {
		out.Seps = make([]uint64, len(p.Seps))
		for i, s := range p.Seps {
			out.Seps[i] = uint64(s)
		}
	}
	if len(p.MVDs) > 0 {
		out.MVDs = make([]WireMVD, len(p.MVDs))
		for i, phi := range p.MVDs {
			deps := make([]uint64, len(phi.Deps))
			for j, d := range phi.Deps {
				deps[j] = uint64(d)
			}
			out.MVDs[i] = WireMVD{Key: uint64(phi.Key), Deps: deps}
		}
	}
	return out
}

// PairResultsFromCore lowers a shard's per-pair outcomes to wire form.
func PairResultsFromCore(ps []core.PairMVDs) []PairResult {
	out := make([]PairResult, len(ps))
	for i, p := range ps {
		out[i] = PairResultFromCore(p)
	}
	return out
}

// ToCore lifts a wire pair result back to the core type, re-validating
// every MVD through mvd.New — a malformed or corrupted response surfaces
// as an error (which the coordinator treats as retriable), never as a
// malformed dependency entering the merge.
func (p PairResult) ToCore() (core.PairMVDs, error) {
	out := core.PairMVDs{A: p.A, B: p.B}
	if p.A < 0 || p.B <= p.A {
		return out, fmt.Errorf("wire: pair (%d,%d) is not canonical", p.A, p.B)
	}
	if len(p.Seps) > 0 {
		out.Seps = make([]bitset.AttrSet, len(p.Seps))
		for i, s := range p.Seps {
			out.Seps[i] = bitset.AttrSet(s)
		}
	}
	for _, wm := range p.MVDs {
		deps := make([]bitset.AttrSet, len(wm.Deps))
		for j, d := range wm.Deps {
			deps[j] = bitset.AttrSet(d)
		}
		phi, err := mvd.New(bitset.AttrSet(wm.Key), deps)
		if err != nil {
			return out, fmt.Errorf("wire: pair (%d,%d): invalid MVD: %w", p.A, p.B, err)
		}
		out.MVDs = append(out.MVDs, phi)
	}
	return out, nil
}
