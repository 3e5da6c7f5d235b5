// Package vtime abstracts time behind a Clock so the overlay runtime can run
// on either the wall clock (production: goroutines, real timers, unchanged
// behavior) or a discrete-event virtual clock (simulation: one runner, a
// deterministic event queue, 100k simulated nodes in seconds of wall time).
//
// The contract every consumer codes against:
//
//   - Now returns the time elapsed since the clock started, as a
//     time.Duration. It is monotonic and has no wall-clock meaning; only
//     differences matter.
//   - Sleep blocks the calling task for d. Under the real clock that is
//     time.Sleep; under the virtual clock the task parks and the scheduler
//     runs other work until the virtual time arrives.
//   - AfterFunc schedules fn to run once after d and returns a Timer whose
//     Stop/Reset follow time.Timer semantics (Stop reports whether it
//     prevented the call; Reset reports whether the timer had been active).
//     Virtual-clock callbacks run on the scheduler loop itself and therefore
//     must not block; real-clock callbacks run on their own goroutine, as
//     with time.AfterFunc.
//
// Sim alone also has Post(d, fn, arg): AfterFunc for a sender that never
// cancels — a callback bound once plus a small integer argument, no Timer.
// Events live by value in Sim's queue, so a Post allocates nothing and an
// AfterFunc only its Timer. A Post callback runs on the scheduler loop like
// any other and must not block.
//
// PostBatch(fn, dues) is the loop of Posts over dues — same firing order
// against every other event, same-instant ties included — held as one queued
// event that re-arms itself from entry to entry: a flood to k recipients
// occupies the queue once, so the queue's length follows the number of
// senders with something in flight, not the number of recipients. The entries
// stay in the caller's storage (16 B each) until they have fired.
//
// vtime is the sanctioned boundary to the time package: the detrand analyzer
// forbids raw time.Now/Sleep/AfterFunc in the deterministic packages and
// points callers here.
package vtime

import "time"

// Clock is the time source injected into the overlay runtime.
type Clock interface {
	// Now is the monotonic elapsed time since the clock started.
	Now() time.Duration
	// Sleep blocks the calling task until d has elapsed.
	Sleep(d time.Duration)
	// AfterFunc runs fn once after d. Under a Sim clock fn runs inline on
	// the event loop and must not block.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a stoppable, resettable pending AfterFunc call.
type Timer interface {
	// Stop cancels the pending call, reporting whether it was still pending
	// (time.Timer semantics: false means the callback already ran or the
	// timer was already stopped).
	Stop() bool
	// Reset re-arms the timer to fire after d, reporting whether it was
	// still pending beforehand.
	Reset(d time.Duration) bool
}

// Real is the production clock: thin wrappers over the time package with a
// fixed start point so Now is a monotonic elapsed duration.
type Real struct {
	start time.Time
}

// NewReal returns a wall-clock Clock starting at zero now.
func NewReal() *Real {
	return &Real{start: time.Now()}
}

// Now is the wall-clock time elapsed since NewReal.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Sleep is time.Sleep.
func (r *Real) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc is time.AfterFunc.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct {
	t *time.Timer
}

func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }
