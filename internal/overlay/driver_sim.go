package overlay

import (
	"time"

	"hfc/internal/vtime"
)

// newDriver makes the System's one mode decision: a *vtime.Sim clock selects
// the event driver, any other clock (nil: the wall clock) the mailbox driver.
func newDriver(s *System) driver {
	if sim, ok := s.cfg.Clock.(*vtime.Sim); ok {
		d := &simDriver{sys: s, sim: sim, free: -1}
		d.arriveFn = d.arrive
		return d
	}
	return newMailboxDriver(s, mailboxSize)
}

// simDriver is the virtual-time execution: every System entry point runs on
// the Sim's single runner, so its state needs no locking (baton-ordered).
// There is no mailbox, no backpressure shedding (an event queue has no
// fixed capacity), no goroutine to tear down, and idle detection is the
// scheduler's own.
type simDriver struct {
	sys *System
	sim *vtime.Sim
	// stopped is the after-Stop gate; deliveries still pending on the
	// scheduler observe it and drop.
	stopped bool

	// The envelope arena: a delayed message is a slot here plus one Sim.Post
	// event carrying the slot's index, and nothing on the heap. free heads the
	// list of handed-back slots (linked through to), fresh is the first slot
	// never handed out. A state round has a quarter of a million envelopes in
	// flight at one instant, so when the last arrives the arena shrinks to
	// one chunk — kept, because every RPC empties the arena.
	chunks   []*[envChunk]envelope
	free     int32
	fresh    int
	inFlight int
	arriveFn func(int) // d.arrive, bound once
}

// envelope is one delayed message in flight.
type envelope struct {
	m        *message
	from, to int32
}

// envChunk is the number of envelopes per arena chunk (64 KiB).
const envChunk = 1 << 12

func (d *simDriver) start() {}
func (d *simDriver) stop()  { d.stopped = true }

// post makes a delayed message one arena slot and one scheduler event, and
// processes an immediate one inline, depth-first, on the current task;
// handlers that park awaiting answers get a cooperative task of their own.
//
//hfc:hotpath budget=0
func (d *simDriver) post(from, to int, m *message, delay time.Duration) {
	if delay > 0 {
		d.sim.Post(delay, d.arriveFn, d.hold(from, to, m))
		return
	}
	if d.stopped {
		d.sys.noteDroppedAfterStop()
		return
	}
	d.sys.count(from, m)
	n := d.sys.nodes[to]
	if m.kind.blocks() {
		//hfcvet:ignore hotalloc a task per RPC or data hop, which allocates its goroutine anyway; never per protocol message
		d.sim.Go(MsgKind(m.kind).String(), func() { n.handle(*m) })
		return
	}
	n.handle(*m)
}

// hold puts a message into an arena slot until its delay has passed.
//
//hfc:hotpath budget=0
func (d *simDriver) hold(from, to int, m *message) int {
	slot := int(d.free)
	if slot >= 0 {
		d.free = d.slot(slot).to
	} else {
		slot = d.fresh
		if slot == len(d.chunks)*envChunk {
			//hfcvet:ignore hotalloc growth: one chunk per 4096 envelopes in flight, given back when the arena empties
			d.chunks = append(d.chunks, new([envChunk]envelope))
		}
		d.fresh++
	}
	d.inFlight++
	e := d.slot(slot)
	e.m, e.from, e.to = m, int32(from), int32(to)
	return slot
}

func (d *simDriver) slot(i int) *envelope { return &d.chunks[uint(i)/envChunk][uint(i)%envChunk] }

// arrive is the scheduler's callback when a delay has passed: it hands the
// slot back and delivers the message as an immediate post.
//
//hfc:hotpath budget=0
func (d *simDriver) arrive(slot int) {
	e := d.slot(slot)
	from, to, m := int(e.from), int(e.to), e.m
	e.m, e.to = nil, d.free
	d.free = int32(slot)
	if d.inFlight--; d.inFlight == 0 {
		clear(d.chunks[1:])
		d.chunks, d.free, d.fresh = d.chunks[:1], -1, 0
	}
	d.post(from, to, m, 0)
}

func (d *simDriver) waitIdle() { d.sim.WaitIdle() }

// sleep parks the task. Nothing can cut a virtual-clock sleep short, so a
// Stop during the wait is seen on wake.
func (d *simDriver) sleep(dur time.Duration) bool {
	d.sim.Sleep(dur)
	return !d.stopped
}

// simReply is the event driver's reply cell: a Future parks the calling
// task instead of blocking a goroutine in a select.
type simReply struct{ fut *vtime.Future[answer] }

func (d *simDriver) newReply() replyCell { return simReply{vtime.NewFuture[answer](d.sim)} }

func (r simReply) deliver(a answer) { r.fut.Complete(a) }

func (r simReply) await(dur time.Duration) (answer, bool) { return r.fut.AwaitTimeout(dur) }
