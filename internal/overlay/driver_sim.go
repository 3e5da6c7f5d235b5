package overlay

import (
	"time"

	"hfc/internal/vtime"
)

// newDriver makes the System's one mode decision: a *vtime.Sim clock selects
// the event driver, any other clock (nil: the wall clock) the mailbox driver.
func newDriver(s *System) driver {
	if sim, ok := s.cfg.Clock.(*vtime.Sim); ok {
		d := &simDriver{sys: s, sim: sim}
		d.landFn = d.land
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

	// The in-flight store. What is delayed travels in runs: the recipients
	// one sender's message is on its way to, gathered as consecutive Dues of
	// one chunk (16 B each) under one record, and handed to the clock as one
	// Sim.PostBatch — one queued event per run, nothing on the heap per
	// recipient or per flood. A lone delayed message is a run of one.
	// chunks[cur] is the chunk being gathered into (cur == len(chunks): none
	// yet) and dues[open:nd] of it the run still open. Chunks never move; one
	// whose entries have all landed is gathered into again (free heads their
	// list, 1 + index, linked through next), so the store follows the peak in
	// flight even in a system that never drains, and when the last entry in
	// flight lands it shrinks to one chunk — kept, because every RPC empties
	// the store.
	chunks   []*flight
	cur      int
	open     int32
	free     int32
	inFlight int
	landFn   func(int) // d.land, bound once
}

// flight is one chunk of the in-flight store.
type flight struct {
	nd, nr int32 // dues and records handed out
	live   int32 // entries handed to the clock that have yet to land
	next   int32
	dues   [flightDues]vtime.Due
	runs   [flightRuns]run
}

// run is what the entries of one run share. A Due's Arg names it and the
// recipient: (chunk·flightRuns + record) << 32 | to.
type run struct {
	m    *message
	from int32
	left int32 // entries yet to land; the last lets go of m
}

// A chunk is 64 KiB of dues, one short to leave the counters their 16 bytes,
// and 8 KiB of records — nine pages exactly. A flood averages well over eight
// delayed recipients, so the dues run out first; where lone messages fill the
// records first the chunk is left early.
const (
	flightDues = 1<<12 - 1
	flightRuns = 1 << 9
)

func (d *simDriver) start() {}
func (d *simDriver) stop()  { d.stopped = true }

// post makes a delayed message a run of one and processes an immediate one
// inline.
//
//hfc:hotpath budget=0
func (d *simDriver) post(from, to int, m *message, delay time.Duration) {
	if delay > 0 {
		d.gather(from, to, m, delay)
		d.closeRun(from, m)
		return
	}
	d.deliver(from, to, m)
}

// flood gathers the delayed recipients into one run. Two rules keep the order
// of delivery that of the loop of sends by construction: the run is closed —
// handed to the clock — before any immediate recipient is processed inline,
// so nothing is ever scheduled between two entries of one batch, and a run
// that meets the end of its chunk goes on as a second run, which having the
// later sequence number fires as the tail of the first would.
//
//hfc:hotpath budget=0
func (d *simDriver) flood(from int, members []int, m *message) {
	for _, to := range members {
		if to == from {
			continue
		}
		for delay, copies := d.sys.fate(from, to, m); copies > 0; copies-- {
			if delay > 0 {
				d.gather(from, to, m, delay)
				continue
			}
			d.closeRun(from, m)
			d.deliver(from, to, m)
		}
	}
	d.closeRun(from, m)
}

// gather adds a recipient to the open run, opening one if none is.
//
//hfc:hotpath budget=0
func (d *simDriver) gather(from, to int, m *message, delay time.Duration) {
	if d.cur == len(d.chunks) || d.chunks[d.cur].nd == flightDues || d.chunks[d.cur].nr == flightRuns {
		d.closeRun(from, m)
		if d.free > 0 {
			d.cur = int(d.free) - 1
			d.free = d.chunks[d.cur].next
		} else {
			d.cur = len(d.chunks)
			//hfcvet:ignore hotalloc growth: one chunk per 4095 entries in flight, reused as soon as its own have landed and given back when the store empties
			d.chunks = append(d.chunks, new(flight))
		}
		d.open = 0
	}
	c := d.chunks[d.cur]
	c.dues[c.nd] = vtime.Due{After: delay, Arg: (d.cur*flightRuns+int(c.nr))<<32 | to}
	c.nd++
}

// closeRun hands the open run, if there is one, to the clock.
//
//hfc:hotpath budget=0
func (d *simDriver) closeRun(from int, m *message) {
	if d.cur == len(d.chunks) || d.chunks[d.cur].nd == d.open {
		return
	}
	c := d.chunks[d.cur]
	k := c.nd - d.open
	c.runs[c.nr] = run{m: m, from: int32(from), left: k}
	c.nr++
	c.live += k
	d.inFlight += int(k)
	d.sim.PostBatch(d.landFn, c.dues[d.open:c.nd])
	d.open = c.nd
}

// land is the clock's callback when an entry's delay has passed: it takes the
// entry out of the store and processes the message as an immediate one. No
// run is open while the clock fires events, so a chunk whose last entry this
// was is free to be gathered into from its start.
//
//hfc:hotpath budget=0
func (d *simDriver) land(arg int) {
	slot, to := arg>>32, int(uint32(arg))
	ci := slot / flightRuns
	c := d.chunks[ci]
	r := &c.runs[slot%flightRuns]
	from, m := int(r.from), r.m
	if r.left--; r.left == 0 {
		r.m = nil
	}
	c.live--
	if d.inFlight--; d.inFlight == 0 {
		clear(d.chunks[1:])
		d.chunks, d.cur, d.free = d.chunks[:1], 0, 0
		ci, c = 0, d.chunks[0]
	}
	if c.live == 0 {
		c.nd, c.nr = 0, 0
		if ci == d.cur {
			d.open = 0
		} else {
			c.next, d.free = d.free, int32(ci+1)
		}
	}
	d.deliver(from, to, m)
}

// deliver processes a message at its destination, depth-first, on the
// current task; handlers that park awaiting answers get a cooperative task
// of their own.
//
//hfc:hotpath budget=0
func (d *simDriver) deliver(from, to int, m *message) {
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
