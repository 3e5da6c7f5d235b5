package vtime

import "time"

// Future is a single-assignment cell a Sim task can await with a deadline —
// the virtual-clock replacement for the "reply channel + timer + select"
// idiom. Complete delivers the value (first call wins) and wakes the
// waiter; AwaitTimeout parks the calling task until the value arrives or d
// of virtual time passes.
//
// Like everything on Sim, a Future must only be touched with the baton held
// (from tasks or event callbacks), and it supports at most one concurrent
// waiter.
type Future[T any] struct {
	s      *Sim
	done   bool
	val    T
	waiter *task
}

// NewFuture returns an incomplete Future bound to s.
func NewFuture[T any](s *Sim) *Future[T] {
	return &Future[T]{s: s}
}

// Complete delivers v, waking the waiter if one is parked. Only the first
// call takes effect; later calls report false and discard their value.
func (f *Future[T]) Complete(v T) bool {
	if f.done {
		return false
	}
	f.done = true
	f.val = v
	if w := f.waiter; w != nil {
		f.waiter = nil
		f.s.ready.push(w)
	}
	return true
}

// Done reports whether the value has been delivered.
func (f *Future[T]) Done() bool { return f.done }

// AwaitTimeout blocks the current task until the Future completes or d of
// virtual time elapses, reporting which happened. A completed Future
// returns immediately. Panics if another task is already waiting.
func (f *Future[T]) AwaitTimeout(d time.Duration) (T, bool) {
	if f.done {
		return f.val, true
	}
	if f.waiter != nil {
		panic("vtime: Future already has a waiter")
	}
	t := f.s.current("Future.AwaitTimeout")
	f.waiter = t
	timeout := f.s.AfterFunc(d, func() {
		// Still waiting at the deadline: detach and wake with no value.
		if f.waiter == t {
			f.waiter = nil
			f.s.ready.push(t)
		}
	})
	f.s.park(t, "future")
	timeout.Stop()
	if f.done {
		return f.val, true
	}
	var zero T
	return zero, false
}
