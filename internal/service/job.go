package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	maimon "repro"
	"repro/internal/wire"
)

// The JSON shapes of the job API live in internal/wire — one schema
// shared by these handlers, the distributed coordinator (internal/dist),
// and external clients. The service re-exports them under their original
// names so existing embedders keep compiling.
type (
	// State is a job lifecycle state. Transitions: queued → running →
	// done|failed|cancelled, plus queued → cancelled (cancelled before a
	// worker picked it up) and queued → done (result-cache hit at submit).
	State = wire.State
	// JobRequest is the submit payload.
	JobRequest = wire.JobRequest
	// SchemeResult is one mined acyclic schema with its quality metrics.
	SchemeResult = wire.SchemeResult
	// MVDItem is one mined full ε-MVD.
	MVDItem = wire.MVDItem
	// JobResult is what GET /jobs/{id}/result serves once a job is done.
	JobResult = wire.JobResult
	// Progress is a live snapshot of how far a job has gotten.
	Progress = wire.Progress
	// MemoryStatus is the memory state of the session a job mines against.
	MemoryStatus = wire.MemoryStatus
	// DistStatus is the shard fan-out view of a coordinator-run job.
	DistStatus = wire.DistStatus
	// JobStatus is the wire representation of a job (GET /jobs/{id}).
	JobStatus = wire.JobStatus
)

const (
	StateQueued    = wire.StateQueued
	StateRunning   = wire.StateRunning
	StateDone      = wire.StateDone
	StateFailed    = wire.StateFailed
	StateCancelled = wire.StateCancelled
)

// Mining modes a job may request.
const (
	ModeSchemes = wire.ModeSchemes // both phases: full ε-MVDs, then acyclic schemes
	ModeMVDs    = wire.ModeMVDs    // phase 1 only
)

// Job is one asynchronous mining job. All mutable fields are guarded by
// mu except the progress counters, which the worker updates with atomics
// from inside the mining callbacks.
type Job struct {
	id  string
	req JobRequest

	ctx    context.Context // cancelled by DELETE or manager shutdown
	cancel context.CancelFunc

	// sess is the dataset session the job is running against, published
	// by the worker at start so status readers can report the session's
	// live memory state, and cleared again at finish (a retained job
	// record must not pin a session — and its relation and caches —
	// after the dataset is removed). Terminal statuses serve memFinal,
	// the snapshot taken at finish, instead.
	sess atomic.Pointer[maimon.Session]

	// Live progress counters, stored from inside the miner's progress
	// callback with atomics (the worker goroutine writes, any number of
	// status readers race with it).
	pairsDone  atomic.Int64
	pairsTotal atomic.Int64
	candidates atomic.Int64
	mvds       atomic.Int64 // full MVDs mined so far (phase 1)
	schemes    atomic.Int64 // schemes enumerated so far (phase 2)

	// Distributed-execution counters, stored from the coordinator's
	// shard-progress callback; shardsTotal > 0 marks the job as running
	// distributed and surfaces JobStatus.Dist.
	shardsDone  atomic.Int64
	shardsTotal atomic.Int64
	distRetries atomic.Int64

	mu       sync.Mutex
	state    State
	phase    string
	memFinal *MemoryStatus // session memory snapshot taken at finish
	errMsg   string
	result   *JobResult
	cacheHit bool
	// key is the result-cache key the job is served under, set (under
	// Manager.mu) when it finishes done or is itself a hit; eviction
	// drops the entry only if it still names this job.
	key      cacheKey
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on entering a terminal state
}

func newJob(id string, req JobRequest, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		id:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submitted request (with manager defaults applied).
func (j *Job) Request() JobRequest { return j.req }

// Done is closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result; ok is false until the job is done.
// Cancelled jobs retain the partial result mined before cancellation, but
// it is only exposed here for done jobs.
func (j *Job) Result() (*JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Status returns a consistent snapshot for serialization.
func (j *Job) Status() JobStatus {
	// Snapshot the session stats before taking j.mu: Session.Stats walks
	// the striped oracle counters and there is no reason to serialize
	// status readers behind that.
	mem := memorySnapshot(j.sess.Load())
	j.mu.Lock()
	defer j.mu.Unlock()
	if mem == nil {
		mem = j.memFinal
	}
	st := JobStatus{
		ID:       j.id,
		Dataset:  j.req.Dataset,
		Mode:     j.req.Mode,
		Epsilon:  j.req.Epsilon,
		State:    j.state,
		Error:    j.errMsg,
		CacheHit: j.cacheHit,
		Progress: Progress{
			Phase:      j.phase,
			PairsDone:  int(j.pairsDone.Load()),
			PairsTotal: int(j.pairsTotal.Load()),
			Candidates: int(j.candidates.Load()),
			MVDs:       int(j.mvds.Load()),
			Schemes:    int(j.schemes.Load()),
		},
		Memory:    mem,
		CreatedAt: j.created,
	}
	if total := j.shardsTotal.Load(); total > 0 {
		st.Dist = &DistStatus{
			ShardsDone:  int(j.shardsDone.Load()),
			ShardsTotal: int(total),
			Retries:     int(j.distRetries.Load()),
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// markRunning transitions queued → running; it fails when the job was
// cancelled while still in the queue (the worker then just skips it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.phase = "mvds"
	return true
}

func (j *Job) setPhase(p string) {
	j.mu.Lock()
	j.phase = p
	j.mu.Unlock()
}

// observe is the job's maimon.WithProgress sink: it mirrors each live
// event from the core mining loops into the atomically-readable counters
// GET /v1/jobs/{id} serves. The "minseps" phase never occurs here (jobs
// mine MVDs or schemes), so Phase maps onto the job's phase directly.
func (j *Job) observe(p maimon.Progress) {
	if p.Phase == "mvds" || p.PairsTotal > 0 {
		j.pairsDone.Store(int64(p.PairsDone))
		j.pairsTotal.Store(int64(p.PairsTotal))
	}
	j.candidates.Store(int64(p.Candidates))
	j.mvds.Store(int64(p.MVDs))
	if p.Phase == "schemes" {
		j.schemes.Store(int64(p.Schemes))
	}
	j.setPhase(p.Phase)
}

// memorySnapshot captures a session's cache state for MemoryStatus;
// nil in, nil out.
func memorySnapshot(sess *maimon.Session) *MemoryStatus {
	if sess == nil {
		return nil
	}
	st := sess.Stats()
	return &MemoryStatus{
		BytesLive:      st.PLIStats.BytesLive,
		BytesPinned:    st.PLIStats.BytesPinned,
		Evictions:      st.PLIStats.Drops + st.PLIStats.Demotions,
		PLIEntries:     st.PLIStats.Entries,
		HCached:        st.HCached,
		EntropyOnly:    st.PLIStats.EntropyOnly,
		MemoBytes:      st.MemoBytes,
		MemoEvictions:  st.MemoEvictions,
		SpillBytes:     st.PLIStats.SpillBytes,
		SpillHits:      st.PLIStats.SpillHits,
		SpillDemotions: st.PLIStats.Demotions,
	}
}

// finish records the terminal state; the first terminal transition wins.
// It freezes the session's memory state into the status and drops the
// session reference, so a retained job record never pins a session a
// dataset removal has otherwise released. It reports whether this call
// performed the transition (false when the job was already terminal), so
// callers can emit lifecycle telemetry exactly once per job.
func (j *Job) finish(state State, result *JobResult, errMsg string) bool {
	if !state.Terminal() {
		panic(fmt.Sprintf("service: finish with non-terminal state %q", state))
	}
	mem := memorySnapshot(j.sess.Swap(nil))
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.memFinal = mem
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	close(j.done)
	return true
}

// cancelQueued transitions queued → cancelled directly (no worker has the
// job yet). It reports whether the transition happened.
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateCancelled
	j.errMsg = "cancelled before start"
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	j.cancel()
	return true
}
