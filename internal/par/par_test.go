package par

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hfc/internal/par/partest"
)

// poolSize measures how many goroutines run(n, fn) puts behind fn: the
// first want calls block until want of them are in flight together (so a
// smaller pool times out), and the high-water mark of concurrent calls
// bounds the pool from above.
func poolSize(t *testing.T, n, want int, run func(n int, fn func(i int))) int {
	t.Helper()
	var arrived, active, peak atomic.Int32
	gate := make(chan struct{})
	timeout := time.After(10 * time.Second)
	run(n, func(int) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		if got := arrived.Add(1); int(got) == want {
			close(gate)
		} else if int(got) < want {
			select {
			case <-gate:
			case <-timeout:
				t.Errorf("n=%d: %d calls in flight after 10s, want a pool of %d", n, got, want)
			}
		}
		active.Add(-1)
	})
	return int(peak.Load())
}

func TestForPoolIsMinOfGOMAXPROCSAndN(t *testing.T) {
	for _, tc := range []struct{ procs, n, want int }{
		{4, 100, 4},
		{4, 3, 3},
		{2, 100, 2},
		{1, 100, 1},
	} {
		partest.SetProcs(t, tc.procs)
		if got := poolSize(t, tc.n, tc.want, For); got != tc.want {
			t.Errorf("GOMAXPROCS=%d n=%d: pool of %d, want %d", tc.procs, tc.n, got, tc.want)
		}
	}
}

func TestForNPoolIsMinOfWorkersAndN(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{8, 100, 8},
		{8, 5, 5},
		{1, 100, 1},
		{0, 100, 1},
		{-1, 100, 1},
	} {
		run := func(n int, fn func(i int)) { ForN(n, tc.workers, fn) }
		if got := poolSize(t, tc.n, tc.want, run); got != tc.want {
			t.Errorf("workers=%d n=%d: pool of %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// goroutineID returns the "goroutine N " prefix of the caller's stack dump.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:bytes.IndexByte(buf, '[')])
}

func TestOneWorkerSpawnsNoGoroutine(t *testing.T) {
	caller := goroutineID()
	check := func(int) {
		if got := goroutineID(); got != caller {
			t.Errorf("fn ran on %q, the caller is %q: one worker must be the plain loop", got, caller)
		}
	}
	partest.SetProcs(t, 1)
	For(50, check)
	ForN(50, 1, check)
	partest.SetProcs(t, 4)
	For(1, check) // clamped to the item count
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	const n = 1000
	check := func(name string, run func(fn func(i int))) {
		counts := make([]atomic.Int32, n)
		run(func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("%s: index %d ran %d times", name, i, c)
			}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		partest.SetProcs(t, procs)
		check("For", func(fn func(i int)) { For(n, fn) })
	}
	for _, workers := range []int{0, 1, 2, 8} {
		check("ForN", func(fn func(i int)) { ForN(n, workers, fn) })
	}
}

func TestForZeroItems(t *testing.T) {
	ran := false
	For(0, func(int) { ran = true })
	ForN(0, 4, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n=0")
	}
}

func TestForErrReturnsLowestIndexedError(t *testing.T) {
	partest.SetProcs(t, 4)
	errA := errors.New("a")
	errB := errors.New("b")
	var ran atomic.Int32
	err := ForErr(10, func(i int) error {
		ran.Add(1)
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("ForErr = %v, want lowest-indexed error %v", err, errA)
	}
	if ran.Load() != 10 {
		t.Errorf("%d of 10 items ran: a failing item must not cancel the rest", ran.Load())
	}
	if err := ForErr(10, func(int) error { return nil }); err != nil {
		t.Errorf("ForErr with no failures = %v", err)
	}
}
