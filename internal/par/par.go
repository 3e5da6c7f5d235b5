// Package par provides the worker pool every build stage fans out on. The
// pool size is read, never passed: For and ForErr run on
// runtime.GOMAXPROCS(0) goroutines, clamped to the item count, and one
// worker is the plain loop — so GOMAXPROCS=1 is the serial build. The
// contract every caller relies on: work items are pure functions of their
// index writing only to index-owned slots, so running them on any number
// of workers in any order yields results bit-identical to the serial loop.
// Randomness is never drawn inside a worker — callers draw every rng value
// sequentially before fanning out (see coords.BuildMap), which keeps
// detrand's determinism contract intact.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0), …, fn(n-1) on min(GOMAXPROCS, n) goroutines and returns
// when all calls have completed. Items are handed out through an atomic
// counter, so the assignment of items to workers is nondeterministic — fn
// must not care which worker runs it.
func For(n int, fn func(i int)) {
	ForN(n, runtime.GOMAXPROCS(0), fn)
}

// ForErr is For with error collection: every item runs (a failing item
// does not cancel the rest), and the error of the lowest-indexed failing
// item is returned, so the reported error is deterministic regardless of
// scheduling.
func ForErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	For(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForN is For on a caller-given number of workers, for the callers whose
// fan-out is a workload parameter (a request batch's concurrency) rather
// than a property of the machine. The pool is min(workers, n); one worker
// or fewer runs the plain loop on the calling goroutine.
func ForN(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
