package overlay

import (
	"time"

	"hfc/internal/vtime"
)

// newDriver makes the System's one mode decision: a *vtime.Sim clock selects
// the event driver, any other clock (nil: the wall clock) the mailbox driver.
func newDriver(s *System) driver {
	if sim, ok := s.cfg.Clock.(*vtime.Sim); ok {
		return &simDriver{sys: s, sim: sim}
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
}

func (d *simDriver) start() {}
func (d *simDriver) stop()  { d.stopped = true }

// post makes a delayed message one scheduler event — one closure, one
// timer — and processes an immediate one inline, depth-first, on the
// current task; handlers that park awaiting answers get a cooperative task
// of their own.
func (d *simDriver) post(from, to int, m message, delay time.Duration) {
	if delay > 0 {
		d.sim.AfterFunc(delay, func() { d.post(from, to, m, 0) })
		return
	}
	if d.stopped {
		d.sys.noteDroppedAfterStop()
		return
	}
	d.sys.count(from, m)
	n := d.sys.nodes[to]
	if m.kind.blocks() {
		d.sim.Go(MsgKind(m.kind).String(), func() { n.handle(m) })
		return
	}
	n.handle(m)
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
