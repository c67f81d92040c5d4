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

// beginPhase starts a top-level mining phase: it clears the stop cause
// left by an earlier phase or run, so each phase reports only its own
// interruption (Session.MineSchemes latches phase 1's error before
// phase 2 begins).
func (m *Miner) beginPhase() { m.cause = nil }

// Context returns the context bound with WithContext.
func (m *Miner) Context() context.Context { return m.ctx }

// stopped reports whether mining should halt — the bound context was
// cancelled or timed out — and records the first cause observed for
// interruptErr. Every inner mining loop polls it once per candidate, so
// cancellation latency is one candidate evaluation.
func (m *Miner) stopped() bool {
	if !m.done.Load() {
		return false
	}
	if m.cause == nil {
		m.cause = m.ctx.Err()
	}
	return true
}

// Err reports how the most recent mining phase stopped: nil for a
// completed run, ErrInterrupted after the context's deadline, or the
// context's cancellation error. It lets streaming callers that drive
// EnumerateSchemes directly surface the same errors the batch entry
// points report through MVDResult.Err.
func (m *Miner) Err() error { return m.interruptErr() }

// interruptErr translates the recorded stop cause into the error reported
// through MVDResult.Err: a context deadline surfaces as ErrInterrupted,
// explicit cancellation as context.Canceled, so callers can tell "told to
// stop" from "ran out of time".
func (m *Miner) interruptErr() error {
	switch m.cause {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrInterrupted
	default:
		return m.cause
	}
}
