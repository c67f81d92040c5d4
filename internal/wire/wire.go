// Package wire is the JSON schema of the maimond protocol: the job and
// result shapes the HTTP API serves, and the shard request/result shapes
// the distributed mining tier exchanges between a coordinator and its
// workers. Both sides of every exchange — internal/service handlers,
// internal/dist coordinator, external clients — marshal exactly these
// types, so the schema lives here once instead of being re-declared
// handler-locally.
//
// The types are plain data: no behavior beyond trivial accessors, no
// imports of the service or mining layers (the conversions to core
// mining types live in shard.go and depend only on internal/core and its
// value types).
package wire

import "time"

// State is a job lifecycle state. Transitions: queued → running →
// done|failed|cancelled, plus queued → cancelled (cancelled before a
// worker picked it up) and queued → done (result-cache hit at submit).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Mining modes a job may request.
const (
	ModeSchemes = "schemes" // both phases: full ε-MVDs, then acyclic schemes
	ModeMVDs    = "mvds"    // phase 1 only
)

// JobRequest is the submit payload.
type JobRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Epsilon is the approximation threshold ε ≥ 0 in bits.
	Epsilon float64 `json:"epsilon"`
	// Mode selects what to mine: "schemes" (default) or "mvds".
	Mode string `json:"mode,omitempty"`
	// TimeoutMS bounds the mining run; 0 means no limit.
	// A timed-out job still completes as done with Interrupted partial
	// results, as a library mine past its context's deadline returns
	// them with context.DeadlineExceeded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSchemes caps how many schemes are enumerated; 0 applies the
	// library's default (maimon.DefaultMaxSchemes), -1 means unlimited.
	MaxSchemes int `json:"max_schemes,omitempty"`
	// Workers is the parallel fan-out of this job's mining pipeline:
	// attribute pairs are mined across that many goroutines over the
	// dataset's shared session. 0 applies the manager's default
	// (Config.MineWorkers); values are capped at GOMAXPROCS. Results are
	// deterministic regardless of the fan-out.
	Workers int `json:"workers,omitempty"`
}

// SchemeResult is one mined acyclic schema with its quality metrics.
type SchemeResult struct {
	Schema      string  `json:"schema"`
	J           float64 `json:"j"`
	Relations   int     `json:"relations"`
	Width       int     `json:"width"`
	SavingsPct  float64 `json:"savings_pct"`
	SpuriousPct float64 `json:"spurious_pct"`
}

// MVDItem is one mined full ε-MVD.
type MVDItem struct {
	MVD string  `json:"mvd"`
	J   float64 `json:"j"`
}

// JobResult is what GET /jobs/{id}/result serves once a job is done.
type JobResult struct {
	Dataset     string         `json:"dataset"`
	Epsilon     float64        `json:"epsilon"`
	Mode        string         `json:"mode"`
	Schemes     []SchemeResult `json:"schemes,omitempty"`
	MVDs        []MVDItem      `json:"mvds"`
	NumMinSeps  int            `json:"num_min_seps"`
	Interrupted bool           `json:"interrupted,omitempty"` // the job's timeout_ms cut it: results are partial
	ElapsedMS   int64          `json:"elapsed_ms"`
}

// Progress is a live snapshot of how far a job has gotten, sourced from
// the structured event stream the core mining loops emit (one event per
// attribute pair in phase 1, one per scheme in phase 2) — not synthetic
// post-phase counters.
type Progress struct {
	// Phase is "" (queued), "mvds" or "schemes".
	Phase string `json:"phase,omitempty"`
	// PairsDone / PairsTotal track the attribute-pair loop of phase 1.
	PairsDone  int `json:"pairs_done"`
	PairsTotal int `json:"pairs_total"`
	// Candidates counts candidate MVDs the search has evaluated so far.
	Candidates int `json:"candidates"`
	// MVDs is the number of full ε-MVDs mined so far.
	MVDs int `json:"mvds"`
	// Schemes counts schemes streamed out of the enumerator so far.
	Schemes int `json:"schemes"`
}

// MemoryStatus is the memory state of the dataset session a job mines
// (or mined) against — snapshotted live at status time while the job
// runs, frozen at its completion. The session is shared by every job on
// the dataset, so the numbers describe the dataset's cache, not this
// job alone: bytes_live is the PLI occupancy against the service's
// -cache-bytes budget, evictions counts partitions dropped or spilled to
// stay inside it (the cache's Drops + Demotions; each one a future
// recompute or promotion, never a changed result).
type MemoryStatus struct {
	BytesLive int64 `json:"bytes_live"`
	// BytesPinned is the weight of the pinned single-attribute
	// partitions, resident for the session's lifetime and outside the
	// budget; bytes_live + bytes_pinned is the cache's true residency.
	BytesPinned int64 `json:"bytes_pinned"`
	Evictions   int   `json:"evictions"`
	PLIEntries  int   `json:"pli_entries"`
	HCached     int   `json:"h_cached"`
	// EntropyOnly counts intersections the engine counted and never kept:
	// a chain leaf's entropy — a set no other set's partition is assembled
	// from, most of a cold mine — or a class table for scheme ranking.
	EntropyOnly int `json:"entropy_only"`
	// MemoBytes/MemoEvictions describe the entropy memo above the PLI
	// cache: its accounted residency and the entries dropped to stay
	// inside the service's -entropy-bytes budget.
	MemoBytes     int64 `json:"memo_bytes"`
	MemoEvictions int   `json:"memo_evictions"`
	// The spill tier under the PLI cache (-spill-dir): its on-disk
	// footprint, the requests served by promoting a spilled partition
	// instead of recomputing it, and the evictions that demoted to disk
	// instead of dropping. evictions above remains the demote+drop total,
	// so pre-spill dashboards keep reading the same number.
	SpillBytes     int64 `json:"spill_bytes"`
	SpillHits      int   `json:"spill_hits"`
	SpillDemotions int   `json:"spill_demotions"`
}

// DistStatus is the distributed-execution view of a job running on a
// coordinator: how far the shard fan-out has gotten and how much
// recovery work (retries) it took. Absent on single-node jobs.
type DistStatus struct {
	ShardsDone  int `json:"shards_done"`
	ShardsTotal int `json:"shards_total"`
	Retries     int `json:"retries"`
}

// JobStatus is the wire representation of a job (GET /jobs/{id}).
type JobStatus struct {
	ID         string        `json:"id"`
	Dataset    string        `json:"dataset"`
	Mode       string        `json:"mode"`
	Epsilon    float64       `json:"epsilon"`
	State      State         `json:"state"`
	Error      string        `json:"error,omitempty"`
	CacheHit   bool          `json:"cache_hit,omitempty"`
	Progress   Progress      `json:"progress"`
	Memory     *MemoryStatus `json:"memory,omitempty"`
	Dist       *DistStatus   `json:"dist,omitempty"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
}

// DatasetInfo describes a registered dataset.
type DatasetInfo struct {
	Name     string    `json:"name"`
	Rows     int       `json:"rows"`
	Cols     int       `json:"cols"`
	Attrs    []string  `json:"attrs"`
	LoadedAt time.Time `json:"loaded_at"`
}
