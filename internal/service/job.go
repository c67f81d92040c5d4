package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	maimon "repro"
	"repro/internal/dist"
	"repro/internal/wire"
)

// Job is one asynchronous mining job. All mutable fields but sess and key
// are guarded by mu, the live progress included: the mining callbacks
// store it there once per event.
type Job struct {
	id  string
	req wire.JobRequest

	ctx    context.Context // cancelled by DELETE or manager shutdown
	cancel context.CancelFunc

	// sess is the dataset session the job is running against, published
	// by the worker at start so status readers can report the session's
	// live memory state, and cleared again at finish (a retained job
	// record must not pin a session — and its relation and caches —
	// after the dataset is removed). Terminal statuses serve memFinal,
	// the snapshot taken at finish, instead.
	sess atomic.Pointer[maimon.Session]

	mu    sync.Mutex
	state wire.State
	// progress is the live progress GET /v1/jobs/{id} serves, its Phase
	// the job's phase; dist is the coordinator's shard progress, whose
	// ShardsTotal > 0 marks the job as running distributed and surfaces
	// JobStatus.Dist.
	progress wire.Progress
	dist     wire.DistStatus
	memFinal *wire.MemoryStatus // session memory snapshot taken at finish
	errMsg   string
	result   *wire.JobResult
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

func newJob(id string, req wire.JobRequest, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		id:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   wire.StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submitted request (with manager defaults applied).
func (j *Job) Request() wire.JobRequest { return j.req }

// Done is closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() wire.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result; ok is false until the job is done.
// Cancelled jobs retain the partial result mined before cancellation, but
// it is only exposed here for done jobs.
func (j *Job) Result() (*wire.JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wire.StateDone {
		return nil, false
	}
	return j.result, true
}

// Status returns a consistent snapshot for serialization.
func (j *Job) Status() wire.JobStatus {
	mem := memorySnapshot(j.sess.Load())
	j.mu.Lock()
	defer j.mu.Unlock()
	if mem == nil {
		mem = j.memFinal
	}
	st := wire.JobStatus{
		ID:        j.id,
		Dataset:   j.req.Dataset,
		Mode:      j.req.Mode,
		Epsilon:   j.req.Epsilon,
		State:     j.state,
		Error:     j.errMsg,
		CacheHit:  j.cacheHit,
		Progress:  j.progress,
		Memory:    mem,
		CreatedAt: j.created,
	}
	if j.dist.ShardsTotal > 0 {
		d := j.dist
		st.Dist = &d
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
	if j.state != wire.StateQueued {
		return false
	}
	j.state = wire.StateRunning
	j.started = time.Now()
	j.progress.Phase = "mvds"
	return true
}

func (j *Job) setPhase(p string) {
	j.mu.Lock()
	j.progress.Phase = p
	j.mu.Unlock()
}

// observe is the job's maimon.WithProgress sink: it stores each live
// event from the core mining loops as the progress GET /v1/jobs/{id}
// serves. The "minseps" phase never occurs here (jobs mine MVDs or
// schemes), so Phase maps onto the job's phase directly.
func (j *Job) observe(p maimon.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if p.Phase == "mvds" || p.PairsTotal > 0 {
		j.progress.PairsDone = p.PairsDone
		j.progress.PairsTotal = p.PairsTotal
	}
	j.progress.Candidates = p.Candidates
	j.progress.MVDs = p.MVDs
	if p.Phase == "schemes" {
		j.progress.Schemes = p.Schemes
	}
	j.progress.Phase = p.Phase
}

// observeShard is the coordinator's shard-progress sink of a distributed
// job: it stores the fleet's shard and pair counts.
func (j *Job) observeShard(p dist.ShardProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dist = wire.DistStatus{ShardsDone: p.ShardsDone, ShardsTotal: p.ShardsTotal, Retries: p.Retries}
	j.progress.PairsDone = p.PairsDone
	j.progress.PairsTotal = p.PairsTotal
}

// memorySnapshot captures a session's cache state for MemoryStatus;
// nil in, nil out.
func memorySnapshot(sess *maimon.Session) *wire.MemoryStatus {
	if sess == nil {
		return nil
	}
	st := sess.Stats()
	return &wire.MemoryStatus{
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
func (j *Job) finish(state wire.State, result *wire.JobResult, errMsg string) bool {
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
	if j.state != wire.StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = wire.StateCancelled
	j.errMsg = "cancelled before start"
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	j.cancel()
	return true
}
