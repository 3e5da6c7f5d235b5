package vtime

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The allocation pins. They count heap objects, which the race detector
// changes, so CI runs them in its non-race step (make sim) as well.

// TestPostAllocsPerRun: a burst of posts that fits the chunk the queue keeps,
// drained, allocates nothing — no timer, no closure, no boxed event.
func TestPostAllocsPerRun(t *testing.T) {
	s := NewSim()
	fired := 0
	count := func(n int) { fired += n }
	rng := rand.New(rand.NewSource(1))
	var allocs float64
	s.Run(func() {
		allocs = testing.AllocsPerRun(20, func() {
			for i := 0; i < 1000; i++ {
				s.Post(time.Duration(rng.Intn(1000))*time.Microsecond, count, 1)
			}
			s.WaitIdle()
		})
	})
	if fired != 21*1000 {
		t.Fatalf("%d posts fired, want %d", fired, 21*1000)
	}
	if allocs != 0 {
		t.Errorf("1000 posts + drain allocate %v objects, want 0", allocs)
	}
}

// TestAfterFuncAllocsPerRun: a timer is one object (the Timer itself); its
// event is a value in the queue and calls the timer's fn directly.
func TestAfterFuncAllocsPerRun(t *testing.T) {
	s := NewSim()
	fired := 0
	fn := func() { fired++ }
	var allocs float64
	s.Run(func() {
		allocs = testing.AllocsPerRun(100, func() {
			s.AfterFunc(time.Millisecond, fn)
			s.WaitIdle()
		})
	})
	if fired != 101 {
		t.Fatalf("%d timers fired, want 101", fired)
	}
	if allocs > 1 {
		t.Errorf("AfterFunc + fire allocates %v objects, want <= 1", allocs)
	}
}

// TestSleepHandoffAllocsPerRun: two tasks alternating Sleep — the shape
// vtime.handoff_ns measures in a traced benchmark run — allocate nothing
// once each task has built its wake callback.
func TestSleepHandoffAllocsPerRun(t *testing.T) {
	s := NewSim()
	const runs = 50
	var allocs float64
	s.Run(func() {
		s.Go("peer", func() {
			for i := 0; i < runs+1; i++ {
				s.Sleep(time.Microsecond)
			}
		})
		allocs = testing.AllocsPerRun(runs, func() { s.Sleep(time.Microsecond) })
	})
	if allocs != 0 {
		t.Errorf("a Sleep hand-off allocates %v objects, want 0", allocs)
	}
}

// TestSimDeadlockReport pins the panic text. No public call can deadlock a
// Sim — every park but WaitIdle's holds a live event, and WaitIdle's tasks
// are woken when nothing else is left — so the test parks two tasks by hand.
func TestSimDeadlockReport(t *testing.T) {
	s := NewSim()
	defer func() {
		const want = "vtime: deadlock — 2 task(s) blocked with no pending event: main (by hand), stuck (future)"
		if got := recover(); got != want {
			t.Errorf("panic %q\nwant  %q", got, want)
		}
	}()
	s.Run(func() {
		s.Go("stuck", func() { s.park(s.current("test"), "future") })
		s.park(s.current("test"), "by hand")
	})
}

// TestSameInstantPileupPopsInSeqOrder: 10⁵ events at one virtual instant —
// what a state round does to the queue — fire in the order they were posted.
func TestSameInstantPileupPopsInSeqOrder(t *testing.T) {
	s := NewSim()
	const n = 100_000
	next, bad := 0, -1
	check := func(i int) {
		if i != next && bad < 0 {
			bad = next
		}
		next++
	}
	s.Run(func() {
		for i := 0; i < n; i++ {
			s.Post(time.Millisecond, check, i)
		}
		s.WaitIdle()
	})
	if next != n || bad >= 0 {
		t.Fatalf("fired %d of %d, first out of order at position %d", next, n, bad)
	}
}

// TestEventQueueGivesBack: after a burst of 300 000 pending events drains,
// the queue is back to one chunk, and a second burst allocates its chunks
// once more and no more — total allocation of the two stays under three
// times one burst's footprint. A queue kept at its high-water mark fails the
// first check; one regrown by append's 1.25× steps fails the second.
func TestEventQueueGivesBack(t *testing.T) {
	s := NewSim()
	const n = 300_000
	fired := 0
	count := func(int) { fired++ }
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
	}
	var peakCap int
	var total uint64
	s.Run(func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for burst := 0; burst < 2; burst++ {
			for _, d := range delays {
				s.Post(d, count, 0)
			}
			peakCap = s.QueueCap()
			s.WaitIdle()
			if c := s.QueueCap(); c > EventChunk {
				t.Errorf("burst %d: queue holds room for %d events after draining, want <= %d", burst, c, EventChunk)
			}
		}
		runtime.ReadMemStats(&after)
		total = after.TotalAlloc - before.TotalAlloc
	})
	if fired != 2*n {
		t.Fatalf("%d events fired, want %d", fired, 2*n)
	}
	if peakCap < n || peakCap > n+EventChunk {
		t.Errorf("queue had room for %d events at the peak of a burst of %d", peakCap, n)
	}
	footprint := uint64(peakCap * EventSize)
	if total >= 3*footprint {
		t.Errorf("two bursts allocated %d bytes, want < 3 × one burst's footprint of %d", total, footprint)
	}
}
