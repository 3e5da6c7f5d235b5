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

// TestPostBatchAllocsPerRun: 10⁴ entries handed over in the caller's storage
// — one batch of all of them in random order, then a hundred batches of a
// hundred — are sorted, queued and fired without allocating: no sort buffer,
// no closure or object per batch, and the batches fit the chunk the table
// keeps.
func TestPostBatchAllocsPerRun(t *testing.T) {
	s := NewSim()
	const n = 10_000
	fired := 0
	count := func(k int) { fired += k }
	rng := rand.New(rand.NewSource(1))
	dues := make([]Due, n)
	fill := func() {
		for i := range dues {
			dues[i] = Due{time.Duration(rng.Intn(1000)-10) * time.Microsecond, 1}
		}
	}
	var allocs float64
	s.Run(func() {
		allocs = testing.AllocsPerRun(10, func() {
			fill()
			s.PostBatch(count, dues)
			if s.Pending() != n {
				t.Errorf("%d pending after a batch of %d", s.Pending(), n)
			}
			s.WaitIdle()
			fill()
			for i := 0; i < n; i += 100 {
				s.PostBatch(count, dues[i:i+100])
			}
			s.WaitIdle()
		})
	})
	if fired != 11*2*n {
		t.Fatalf("%d entries fired, want %d", fired, 11*2*n)
	}
	if allocs != 0 {
		t.Errorf("posting and firing 2×%d batch entries allocates %v objects, want 0", n, allocs)
	}
}

// TestEventStays40Bytes: a batch is named by a slot in the Sim's table, not
// by a field every queued event would carry.
func TestEventStays40Bytes(t *testing.T) {
	if EventSize != 40 {
		t.Errorf("an event is %d bytes, want 40", EventSize)
	}
}

// TestRunLeavesNoBatchBehind: Pending counts a batch's entries; Run fires what
// a batch has left after the last task finished, like any other pending
// event, and returns holding neither the queue's chunks, nor the batch
// table's, nor through them the caller's dues.
func TestRunLeavesNoBatchBehind(t *testing.T) {
	s := NewSim()
	fired := 0
	count := func(int) { fired++ }
	s.Run(func() {
		s.PostBatch(count, []Due{{3 * time.Millisecond, 0}, {time.Millisecond, 0}, {time.Hour, 0}, {time.Hour, 0}})
		if got := s.Pending(); got != 4 {
			t.Errorf("Pending() = %d with a four-entry batch queued, want 4", got)
		}
		s.Sleep(5 * time.Millisecond)
		if got := s.Pending(); got != 2 {
			t.Errorf("Pending() = %d with two entries left, want 2", got)
		}
	})
	if fired != 4 || s.Now() != time.Hour {
		t.Errorf("%d entries fired by %v, want 4 by 1h0m0s", fired, s.Now())
	}
	if s.Pending() != 0 || s.QueueCap() != 0 || s.BatchCap() != 0 {
		t.Errorf("after Run: %d pending, room for %d events and %d batches; want none",
			s.Pending(), s.QueueCap(), s.BatchCap())
	}
	s.Run(func() { // and the Sim starts over from empty tables
		s.PostBatch(count, []Due{{time.Millisecond, 0}})
		s.WaitIdle()
	})
	if fired != 5 {
		t.Errorf("%d entries fired after a second run, want 5", fired)
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

// TestSameInstantPileupPopsInSeqOrder: 10⁵ callbacks at one virtual instant —
// what a state round asks of the queue — fire in the order they were handed
// over, whether as single posts or as entries of the batches interleaved
// with them.
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
	dues := make([]Due, n)
	s.Run(func() {
		for i := 0; i < n; {
			if i%3 != 0 {
				s.Post(time.Millisecond, check, i)
				i++
				continue
			}
			first := i
			for k := 1 + i%7; k > 0 && i < n; k-- {
				dues[i] = Due{time.Millisecond, i}
				i++
			}
			s.PostBatch(check, dues[first:i])
		}
		s.WaitIdle()
	})
	if next != n || bad >= 0 {
		t.Fatalf("fired %d of %d, first out of order at position %d", next, n, bad)
	}
}

// TestEventQueueGivesBack: the scheduler's storage follows what is pending and
// goes back when it drains.
func TestEventQueueGivesBack(t *testing.T) {
	// After a burst of 300 000 pending events drains, the queue is back to
	// one chunk, and a second burst allocates its chunks once more and no
	// more — total allocation of the two stays under three times one burst's
	// footprint. A queue kept at its high-water mark fails the first check;
	// one regrown by append's 1.25× steps fails the second.
	t.Run("events", func(t *testing.T) {
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
	})
	// The same 300 000 callbacks pending as entries of 4000 batches never
	// take the heap past one chunk — it holds a batch once, not once per
	// entry — and when they have drained the batch table, which did outgrow
	// its first chunk, is back to one as well.
	t.Run("batches", func(t *testing.T) {
		s := NewSim()
		const n, per = 300_000, 75
		fired := 0
		count := func(int) { fired++ }
		rng := rand.New(rand.NewSource(7))
		dues := make([]Due, n)
		s.Run(func() {
			for burst := 0; burst < 2; burst++ {
				for i := range dues {
					dues[i] = Due{After: time.Duration(rng.Intn(1_000_000)) * time.Microsecond}
				}
				for i := 0; i < n; i += per {
					s.PostBatch(count, dues[i:i+per])
				}
				if s.Pending() != n {
					t.Errorf("burst %d: %d pending, want %d", burst, s.Pending(), n)
				}
				if c := s.BatchCap(); c < n/per || c > n/per+BatchChunk {
					t.Errorf("burst %d: the batch table has room for %d batches at the peak of %d", burst, c, n/per)
				}
				for s.Pending() > 0 && !t.Failed() {
					if c := s.QueueCap(); c > EventChunk {
						t.Errorf("burst %d: the heap has room for %d events with %d entries pending in %d batches, want <= %d",
							burst, c, s.Pending(), n/per, EventChunk)
					}
					s.Sleep(50 * time.Millisecond)
				}
				if c := s.BatchCap(); c > BatchChunk {
					t.Errorf("burst %d: the batch table holds room for %d batches after draining, want <= %d", burst, c, BatchChunk)
				}
			}
		})
		if fired != 2*n {
			t.Fatalf("%d entries fired, want %d", fired, 2*n)
		}
	})
}
