package vtime

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Sim is the discrete-event virtual clock: a monotonic time counter, a
// priority queue of events ordered by (time, sequence), and a cooperative
// task scheduler. One Run call drives everything on a single runner — the
// scheduler loop and every task goroutine pass an implicit baton over
// unbuffered channels, so exactly one of them executes at any moment and
// every access to Sim state is ordered by a channel handoff (race-detector
// clean with no locks). Virtual time advances only when no task is runnable:
// jumping straight to the next event is what makes a simulated minute of
// timeouts free.
//
// Determinism: with the same sequence of API calls, the event queue pops in
// the same (time, seq) order, tasks resume in the same FIFO order, and
// every callback runs at the same virtual instant — so a seeded simulation
// produces byte-identical traces run after run.
//
// All Sim methods must be called with the baton held — that is, from inside
// a task started by Run/Go or from an event callback. Calling them from a
// foreign goroutine is a data race by construction.
type Sim struct {
	now     time.Duration
	seq     uint64
	evq     eventQueue
	batches batchTable
	// live counts what is still to fire: events in evq not invalidated by
	// Stop/Reset, a batch event for every entry it has left.
	live int

	ready readyQueue
	idle  []*task // tasks parked in WaitIdle
	tasks []*task // tasks started and not yet finished, in no order
	named int     // counter for auto-generated task names

	cur     *task
	yield   chan struct{} // task/loop -> loop baton return
	running bool
}

// task is one cooperative goroutine managed by the Sim scheduler.
type task struct {
	name      string
	slot      int           // index in Sim.tasks
	wake      chan struct{} // loop -> task baton handoff
	blockedOn string        // why the task last parked, for the deadlock report
	// resume re-queues the task; Sleep posts it. Built on the first Sleep,
	// so a task pays for it once and only if it sleeps.
	resume func(int)
}

// event is one scheduled callback, stored by value in the queue: a Post
// (fn, arg), a timer's pending call (timer, with arg the generation the
// event was armed under — the event is stale, already Stopped or Reset, when
// that no longer matches the timer's), or, with neither fn nor timer, a
// PostBatch in progress (arg is its slot in Sim.batches; when is the deadline
// of its earliest entry left).
type event struct {
	when  time.Duration
	seq   uint64
	fn    func(int)
	timer *simTimer
	arg   int
}

// NewSim returns a virtual clock at time zero with an empty event queue.
func NewSim() *Sim {
	return &Sim{yield: make(chan struct{})}
}

// Now is the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Pending reports how many scheduled callbacks are still live, every entry
// of a PostBatch counted — useful for tests asserting a quiesced scheduler.
func (s *Sim) Pending() int { return s.live }

// Go starts fn as a new cooperative task. The task becomes runnable
// immediately (FIFO after already-ready tasks) but does not run until the
// current task parks or finishes. name appears in deadlock reports; empty
// picks a generated one.
func (s *Sim) Go(name string, fn func()) {
	if name == "" {
		s.named++
		name = fmt.Sprintf("task-%d", s.named)
	}
	t := &task{name: name, slot: len(s.tasks), wake: make(chan struct{})}
	s.tasks = append(s.tasks, t)
	go func() {
		<-t.wake
		fn()
		last := s.tasks[len(s.tasks)-1]
		s.tasks[t.slot], last.slot = last, t.slot
		s.tasks[len(s.tasks)-1] = nil
		s.tasks = s.tasks[:len(s.tasks)-1]
		s.cur = nil
		s.yield <- struct{}{}
	}()
	s.ready.push(t)
}

// Run starts fn as the first task and drives the event loop until every
// task has finished and nothing is pending: an event still queued when the
// last task ends (a timer armed past its lifetime, a delayed delivery) fires,
// advancing the clock, before Run returns. Run panics if no runnable task
// exists, no event can wake one, and tasks are still alive — a deadlock in
// simulated code, reported with every parked task's name and park reason.
func (s *Sim) Run(fn func()) {
	if s.running {
		panic("vtime: nested Sim.Run")
	}
	s.running = true
	defer func() { s.running = false }()
	s.Go("main", fn)
	for {
		if t, ok := s.ready.pop(); ok {
			s.cur = t
			t.wake <- struct{}{}
			<-s.yield
			continue
		}
		if s.fireNext() {
			continue
		}
		if len(s.idle) > 0 {
			for _, t := range s.idle {
				s.ready.push(t)
			}
			s.idle = s.idle[:0]
			continue
		}
		if len(s.tasks) == 0 {
			s.evq, s.batches, s.live = eventQueue{}, batchTable{}, 0
			return
		}
		panic("vtime: deadlock — " + s.blockedReport())
	}
}

// blockedReport lists every live task for the deadlock panic: with nothing
// runnable and no event pending, each of them is parked beyond waking.
func (s *Sim) blockedReport() string {
	names := make([]string, len(s.tasks))
	for i, t := range s.tasks {
		names[i] = t.name + " (" + t.blockedOn + ")"
	}
	sort.Strings(names)
	return fmt.Sprintf("%d task(s) blocked with no pending event: %s", len(names), strings.Join(names, ", "))
}

// fireNext pops events until one live event fires (advancing virtual time
// to its deadline and running its callback inline on the loop) or the queue
// is exhausted. Stale events — invalidated by Timer.Stop or Reset — are
// discarded without firing. A batch event fires its earliest entry and stays
// queued for the rest.
//
//hfc:hotpath budget=0
func (s *Sim) fireNext() bool {
	for s.evq.n > 0 {
		if root := s.evq.at(0); root.fn == nil && root.timer == nil {
			s.fireBatch(root)
			return true
		}
		ev := s.evq.pop()
		t := ev.timer
		if t != nil {
			if !t.armed || t.gen != ev.arg {
				continue // stale: live was already decremented at Stop/Reset
			}
			t.armed = false
		}
		s.live--
		if ev.when > s.now {
			s.now = ev.when
		}
		if t != nil {
			t.fn()
		} else {
			ev.fn(ev.arg)
		}
		return true
	}
	return false
}

// fireBatch fires the earliest entry of the batch the root event stands for.
// Before the callback runs the root is re-keyed to the next entry's deadline
// — which is no work at all when that is the same instant: its key has not
// changed — or popped after the last, so whatever the callback schedules
// meets the queue it would have met had every entry been a Post of its own.
//
//hfc:hotpath budget=0
func (s *Sim) fireBatch(root *event) {
	b := s.batches.at(root.arg)
	fn, arg, when := b.fn, b.dues[0].Arg, root.when
	if b.dues = b.dues[1:]; len(b.dues) == 0 {
		s.batches.release(root.arg)
		s.evq.pop()
	} else if next := b.base + b.dues[0].After; next != when {
		s.evq.rekeyRoot(next)
	}
	s.live--
	if when > s.now {
		s.now = when
	}
	fn(arg)
}

// park hands the baton back to the loop and blocks until the task is
// rescheduled. The caller must have queued something (an event, a future
// waiter registration) that will eventually push t back onto the ready
// queue, or Run will report a deadlock.
func (s *Sim) park(t *task, why string) {
	t.blockedOn = why
	s.cur = nil
	s.yield <- struct{}{}
	<-t.wake
	s.cur = t
}

// current returns the running task, panicking when called from outside one
// (event callbacks run on the loop and must not block).
func (s *Sim) current(op string) *task {
	if s.cur == nil {
		panic("vtime: " + op + " called outside a task (event callbacks must not block)")
	}
	return s.cur
}

// Sleep parks the current task until d of virtual time has elapsed.
// Non-positive d still yields: the task re-queues behind every currently
// scheduled same-instant event, giving cooperative round-robin.
func (s *Sim) Sleep(d time.Duration) {
	t := s.current("Sleep")
	if t.resume == nil {
		t.resume = func(int) { s.ready.push(t) }
	}
	s.Post(d, t.resume, 0)
	s.park(t, "sleep")
}

// WaitIdle parks the current task until the scheduler has no runnable task
// and no live event — every cascade of messages and timers has fully
// drained. Multiple tasks may wait; they all wake together. Returns
// immediately if the system is already idle.
func (s *Sim) WaitIdle() {
	t := s.current("WaitIdle")
	if s.ready.len() == 0 && s.live == 0 {
		return
	}
	s.idle = append(s.idle, t)
	s.park(t, "waitidle")
}

// AfterFunc schedules fn to run at virtual time Now()+d on the event loop.
// fn must not block (no Sleep, no Await); it may call Go to spawn a task
// that does. The returned Timer follows time.Timer Stop/Reset semantics.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	t := &simTimer{s: s, fn: fn}
	t.arm(d)
	return t
}

// Post schedules fn(arg) to run at virtual time Now()+d on the event loop:
// AfterFunc without the Timer, for a sender that never cancels. With fn
// bound once and reused it allocates nothing — the event lives by value in
// the queue. Like every event callback, fn must not block.
//
//hfc:hotpath budget=0
func (s *Sim) Post(d time.Duration, fn func(int), arg int) {
	//hfcvet:ignore hotalloc an event value passed by value, not an allocation
	s.schedule(d, event{fn: fn, arg: arg})
}

// Due is one entry of a PostBatch: the callback's argument and how long after
// the call it is due.
type Due struct {
	After time.Duration
	Arg   int
}

// PostBatch schedules fn(d.Arg) at Now()+d.After for every entry of dues. It
// fires exactly as
//
//	for _, d := range dues { s.Post(d.After, fn, d.Arg) }
//
// would, against every other event, same-instant ties included — but as one
// queued event that re-arms itself from entry to entry, not len(dues) events:
// a flood occupies the queue once, however many recipients it has. The
// entries are put in firing order (negative delays clamped to zero, then a
// stable sort by deadline, so ties keep the order of dues) and the batch
// takes one sequence number: every other event's is wholly below or above it,
// which is all the loop of Posts guarantees either.
//
// dues is the caller's storage: PostBatch reorders it in place, allocates
// nothing, and holds it until the last entry has fired (or Run has returned).
//
//hfc:hotpath budget=0
func (s *Sim) PostBatch(fn func(int), dues []Due) {
	if len(dues) == 0 {
		return
	}
	sorted := true
	for i := range dues {
		if dues[i].After < 0 {
			dues[i].After = 0
		}
		if i > 0 && dues[i].After < dues[i-1].After {
			sorted = false
		}
	}
	if !sorted {
		slices.SortStableFunc(dues, byDeadline)
	}
	//hfcvet:ignore hotalloc a batch and an event value passed by value, not an allocation
	s.schedule(dues[0].After, event{arg: s.batches.hold(batch{fn: fn, dues: dues, base: s.now})})
	s.live += len(dues) - 1
}

func byDeadline(a, b Due) int { return cmp.Compare(a.After, b.After) }

// schedule stamps ev with its deadline and sequence number and queues it.
func (s *Sim) schedule(d time.Duration, ev event) {
	if d < 0 {
		d = 0
	}
	s.seq++
	ev.when, ev.seq = s.now+d, s.seq
	s.evq.push(ev)
	s.live++
}

// simTimer is the virtual-clock Timer. Stop and Reset invalidate the
// pending event lazily by bumping gen; the stale heap entry is skipped when
// popped.
type simTimer struct {
	s     *Sim
	fn    func()
	armed bool
	gen   int
}

func (t *simTimer) arm(d time.Duration) {
	t.gen++
	t.armed = true
	t.s.schedule(d, event{timer: t, arg: t.gen})
}

// Stop cancels the pending callback, reporting whether it was still pending.
func (t *simTimer) Stop() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	t.gen++
	t.s.live--
	return true
}

// Reset re-arms the timer for Now()+d, reporting whether it was pending.
func (t *simTimer) Reset(d time.Duration) bool {
	was := t.armed
	if was {
		t.s.live-- // the old event goes stale via the gen bump in arm
	}
	t.arm(d)
	return was
}

// eventQueue is a binary min-heap of event values ordered by (when, seq):
// earliest deadline first, insertion order among same-instant events. It
// lives in fixed-size chunks, so growing never copies what is queued and a
// burst's memory goes back as soon as the queue drains: a slice kept at the
// high-water mark of the largest round is memory nobody uses.
type eventQueue struct {
	chunks []*[evChunk]event
	n      int
}

// evChunk is the number of events per chunk (160 KiB).
const evChunk = 1 << 12

func (q *eventQueue) at(i int) *event { return &q.chunks[uint(i)/evChunk][uint(i)%evChunk] }

func (e *event) before(o *event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// push sifts ev up from a new last slot.
//
//hfc:hotpath budget=0
func (q *eventQueue) push(ev event) {
	if q.n == len(q.chunks)*evChunk {
		//hfcvet:ignore hotalloc growth: one chunk per 4096 queued events, given back when the queue drains
		q.chunks = append(q.chunks, new([evChunk]event))
	}
	i := q.n
	q.n++
	for i > 0 {
		p := q.at((i - 1) / 2)
		if !ev.before(p) {
			break
		}
		*q.at(i) = *p
		i = (i - 1) / 2
	}
	*q.at(i) = ev
}

// pop removes the earliest event, sifting the last one down from the root.
// A queue that drains keeps one chunk and gives the rest back.
//
//hfc:hotpath budget=0
func (q *eventQueue) pop() event {
	top := *q.at(0)
	q.n--
	tail := q.at(q.n)
	last := *tail
	tail.fn, tail.timer = nil, nil // the vacated slot must not keep them alive
	if q.n == 0 {
		clear(q.chunks[1:])
		q.chunks = q.chunks[:1]
		return top
	}
	q.siftDown(last)
	return top
}

// rekeyRoot moves the root event to a later deadline, keeping its sequence
// number: a batch moving on to its next entry.
//
//hfc:hotpath budget=0
func (q *eventQueue) rekeyRoot(when time.Duration) {
	ev := *q.at(0)
	ev.when = when
	q.siftDown(ev)
}

// siftDown stores ev where it belongs on the way down from the root, whose
// old value the caller has taken.
//
//hfc:hotpath budget=0
func (q *eventQueue) siftDown(last event) {
	i := 0
	for child := 1; child < q.n; child = 2*i + 1 {
		c := q.at(child)
		if child+1 < q.n {
			if r := q.at(child + 1); r.before(c) {
				child, c = child+1, r
			}
		}
		if !c.before(&last) {
			break
		}
		*q.at(i) = *c
		i = child
	}
	*q.at(i) = last
}

// batch is one PostBatch in progress: the entries still to fire, earliest
// first, each due at base + After.
type batch struct {
	fn   func(int)
	dues []Due
	base time.Duration
}

// batchTable holds the batches in progress in slots a batch event names by
// index, so that event need not grow a field only batches use. It keeps the
// queue's storage policy: fixed-size chunks that never move, released slots
// reused first, and everything beyond one chunk given back when the last
// batch finishes.
type batchTable struct {
	chunks []*[batchChunk]batch
	free   int // 1 + the head of the list of released slots (linked through base); 0 when empty
	fresh  int // the first slot never handed out
	held   int
}

// batchChunk is the number of batches per chunk (40 KiB).
const batchChunk = 1 << 10

func (t *batchTable) at(slot int) *batch {
	return &t.chunks[uint(slot)/batchChunk][uint(slot)%batchChunk]
}

// hold stores b and returns its slot.
//
//hfc:hotpath budget=0
func (t *batchTable) hold(b batch) int {
	slot := t.free - 1
	if slot >= 0 {
		t.free = int(t.at(slot).base)
	} else {
		slot = t.fresh
		if slot == len(t.chunks)*batchChunk {
			//hfcvet:ignore hotalloc growth: one chunk per 1024 batches in progress, given back when the last finishes
			t.chunks = append(t.chunks, new([batchChunk]batch))
		}
		t.fresh++
	}
	t.held++
	*t.at(slot) = b
	return slot
}

// release hands a finished batch's slot back, letting go of its callback and
// of the caller's dues.
//
//hfc:hotpath budget=0
func (t *batchTable) release(slot int) {
	//hfcvet:ignore hotalloc a batch value stored in place, not an allocation
	*t.at(slot) = batch{base: time.Duration(t.free)}
	t.free = slot + 1
	if t.held--; t.held == 0 {
		clear(t.chunks[1:])
		t.chunks, t.free, t.fresh = t.chunks[:1], 0, 0
	}
}

// readyQueue is a FIFO of runnable tasks with amortised O(1) pop (head
// index plus periodic compaction).
type readyQueue struct {
	q    []*task
	head int
}

func (r *readyQueue) push(t *task) { r.q = append(r.q, t) }

func (r *readyQueue) pop() (*task, bool) {
	if r.head >= len(r.q) {
		return nil, false
	}
	t := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	if r.head > 64 && r.head*2 >= len(r.q) {
		n := copy(r.q, r.q[r.head:])
		r.q = r.q[:n]
		r.head = 0
	}
	return t, true
}

func (r *readyQueue) len() int { return len(r.q) - r.head }
