package core

import (
	"context"
	"sync/atomic"
)

// WithContext binds ctx to the miner: every mining loop polls it and
// stops early — with valid partial results — once it is cancelled or past
// its deadline. The context is the miner's one stop signal. It returns
// the miner for chaining at construction and clears any stop cause
// recorded under the previous context. NewMiner binds
// context.Background(). Must not be called while a mining phase is in
// flight.
//
// The loops poll once per candidate, from every worker, and ctx.Err()
// takes the context's mutex; so the binding registers a context.AfterFunc
// that raises a flag the workers share, and the loops read the flag. A
// context that is already done raises it here, synchronously, so the
// first poll sees it. The registration is dropped when ctx ends; session
// mines always bind a context they cancel on return.
func (m *Miner) WithContext(ctx context.Context) *Miner {
	if ctx == nil {
		ctx = context.Background()
	}
	m.ctx = ctx
	m.cause = nil
	done := new(atomic.Bool) // a fresh flag: the previous context's callback may still fire
	m.done = done
	if ctx.Err() != nil {
		done.Store(true)
	} else {
		context.AfterFunc(ctx, func() { done.Store(true) })
	}
	return m
}

// Context returns the context bound with WithContext.
func (m *Miner) Context() context.Context { return m.ctx }

// stopped reports whether mining should halt — the bound context was
// cancelled or timed out — and records the first cause observed,
// ctx.Err() verbatim, as the error a stopped phase returns. Every inner
// mining loop polls it once per candidate, so cancellation latency is
// one candidate evaluation. The cause is kept until WithContext binds
// another context; a later phase under the same context stops at its
// first poll with that cause.
func (m *Miner) stopped() bool {
	if !m.done.Load() {
		return false
	}
	if m.cause == nil {
		m.cause = m.ctx.Err()
	}
	return true
}
