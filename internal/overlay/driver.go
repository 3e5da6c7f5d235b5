package overlay

import (
	"sync"
	"time"

	"hfc/internal/vtime"
)

// driver is the delivery seam: how a message reaches a proxy and how a
// caller waits for an answer. The protocol code (the §4 and §5 handlers,
// send's crash/policy/drop verdicts, crash.go, health.go, execute.go) is
// written once against it and never asks which implementation it has.
// There are exactly two — the mailbox driver below and the event driver in
// driver_sim.go — and New picks one from Config.Clock.
//
// A driver owns the clock, the after-Stop gate, whatever queues, goroutines
// or tasks carry a message, and idle detection. It may touch the System
// only through node.handle (to run a message at its destination),
// msgKind.blocks (to learn that a handler waits for replies and so must not
// run on the node's message loop), System.count (as it hands a message
// over), the fault counters for what it sheds (noteDroppedAfterStop,
// DroppedBackpressure with noteAggDrop) and System.fate, which a flood asks
// for each recipient's verdict exactly as send does. It decides nothing about
// the protocol: no verdicts of its own, no state, no message contents.
type driver interface {
	// start begins consuming messages; stop closes the gate — later posts
	// are counted DroppedAfterStop — releases every await and sleep, and
	// returns once nothing the driver started is still running. System
	// calls each at most once.
	start()
	stop()
	// post carries m to node `to` after delay d and runs node.handle there
	// on a copy. from is the sending node, -1 for an injection from outside.
	// m is shared — held until delivery, posted again for a flood's next
	// recipient — so neither side may write through it.
	post(from, to int, m *message, d time.Duration)
	// flood is send to every member but `from`, in member order: System.fate
	// asked per recipient, every copy it grants posted with its delay. The
	// drivers differ in how the copies travel — the mailbox driver posts them
	// one by one, the event driver as one scheduler event for all that are
	// delayed — never in the order they are delivered in, against each other
	// or against anything else posted.
	flood(from int, members []int, m *message)
	// newReply makes the one-shot cell an RPC attempt's answer comes back
	// through.
	newReply() replyCell
	// sleep pauses the caller for d, returning false when the system shut
	// down meanwhile — the caller must then abandon its retry instead of
	// sending into a stopped system.
	sleep(d time.Duration) bool
	// waitIdle blocks until every posted message, and every message and
	// timer those caused, has been handled.
	waitIdle()
}

// replyCell is a driver's one-shot reply/wait primitive. deliver hands the
// answer over without ever blocking the handler; only the first counts, so
// a late or duplicated reply to an abandoned attempt is discarded. await
// blocks the caller for the answer, one attempt's deadline, or shutdown,
// whichever is first; ok reports whether an answer arrived.
type replyCell interface {
	deliver(answer)
	await(d time.Duration) (a answer, ok bool)
}

// mailboxSize is each node's message buffer under the mailbox driver.
const mailboxSize = 256

// mailboxDriver is the real-time execution: one goroutine per proxy
// draining a bounded inbox, handlers that block running on goroutines of
// their own, and delays as clock timers.
type mailboxDriver struct {
	sys   *System
	clock vtime.Clock
	inbox []chan *message

	// stopCh closes when stop begins, releasing RPC waits and retry
	// backoffs immediately instead of letting them sleep through shutdown.
	stopCh chan struct{}
	// inflight tracks undelivered/unprocessed messages so waitIdle can wait
	// for protocol cascades to settle; loops counts the node goroutines.
	inflight, loops sync.WaitGroup

	// sendMu serializes post admission against stop: posters hold the read
	// side across the accepting check and the inflight.Add, stop takes the
	// write side to flip accepting off, so a post can never slip past
	// stop's inflight.Wait and hit a closed inbox.
	sendMu    sync.RWMutex
	accepting bool // guarded by sendMu
}

func newMailboxDriver(s *System, size int) *mailboxDriver {
	d := &mailboxDriver{sys: s, clock: s.cfg.Clock, accepting: true,
		inbox: make([]chan *message, len(s.nodes)), stopCh: make(chan struct{})}
	if d.clock == nil {
		d.clock = vtime.NewReal()
	}
	for i := range d.inbox {
		d.inbox[i] = make(chan *message, size)
	}
	return d
}

func (d *mailboxDriver) start() {
	for i, n := range d.sys.nodes {
		d.loops.Add(1)
		go d.run(n, d.inbox[i])
	}
}

// run is one node's mailbox loop.
func (d *mailboxDriver) run(n *node, inbox <-chan *message) {
	defer d.loops.Done()
	for m := range inbox {
		if m.kind.blocks() {
			go func() {
				defer d.inflight.Done()
				n.handle(*m)
			}()
			continue
		}
		n.handle(*m)
		d.inflight.Done()
	}
}

func (d *mailboxDriver) stop() {
	close(d.stopCh)
	// Refuse new posts, wait for in-flight traffic, then close inboxes. The
	// write lock cannot be acquired while a poster is between its accepting
	// check and its inflight.Add, so every admitted message is covered by
	// the Wait below.
	d.sendMu.Lock()
	d.accepting = false
	d.sendMu.Unlock()
	d.inflight.Wait()
	for _, inbox := range d.inbox {
		close(inbox)
	}
	d.loops.Wait()
}

func (d *mailboxDriver) post(from, to int, m *message, delay time.Duration) {
	d.sendMu.RLock()
	if !d.accepting {
		d.sendMu.RUnlock()
		d.sys.noteDroppedAfterStop()
		return
	}
	d.inflight.Add(1)
	d.sendMu.RUnlock()
	// Either way the send is safe against stop: the message is registered
	// in inflight, and stop only closes inboxes after inflight drains.
	if delay > 0 {
		d.clock.AfterFunc(delay, func() {
			d.sys.count(from, m)
			d.inbox[to] <- m
		})
		return
	}
	if from >= 0 && !m.kind.blocks() {
		// Protocol sends originate from a node's mailbox loop; blocking
		// there on a saturated peer can close a cycle of full mailboxes
		// into a distributed deadlock. The periodic protocol resends
		// everything next round, so backpressure degrades to a counted
		// drop instead.
		select {
		case d.inbox[to] <- m:
			d.sys.count(from, m)
		default:
			d.inflight.Done()
			d.sys.dropMu.Lock()
			d.sys.faults.DroppedBackpressure++
			d.sys.dropMu.Unlock()
			d.sys.noteAggDrop(to, m)
		}
		return
	}
	// Counted first: once handed over, its reply can reach a caller who reads the counters.
	d.sys.count(from, m)
	d.inbox[to] <- m
}

// flood is the loop of sends: each copy has a timer or a mailbox slot of its
// own.
func (d *mailboxDriver) flood(from int, members []int, m *message) {
	for _, to := range members {
		if to == from {
			continue
		}
		for delay, copies := d.sys.fate(from, to, m); copies > 0; copies-- {
			d.post(from, to, m, delay)
		}
	}
}

func (d *mailboxDriver) waitIdle() { d.inflight.Wait() }

// chanReply is the mailbox driver's reply cell: a channel buffered for the
// one answer that counts.
type chanReply struct {
	ch chan answer
	d  *mailboxDriver
}

func (d *mailboxDriver) newReply() replyCell { return chanReply{ch: make(chan answer, 1), d: d} }

func (r chanReply) deliver(a answer) {
	select {
	case r.ch <- a:
	default:
	}
}

func (r chanReply) await(dur time.Duration) (a answer, ok bool) {
	timeout := make(chan struct{})
	tm := r.d.clock.AfterFunc(dur, func() { close(timeout) })
	defer tm.Stop()
	select {
	case a = <-r.ch:
		return a, true
	case <-timeout:
	case <-r.d.stopCh:
		// Shutdown: give up immediately instead of sleeping out the
		// deadline; the caller surfaces it as a timeout.
	}
	return a, false
}

func (d *mailboxDriver) sleep(dur time.Duration) bool {
	// Nothing ever answers a cell nobody else holds: the wait ends on the
	// deadline or on stop.
	d.newReply().await(dur)
	select {
	case <-d.stopCh:
		return false
	default:
		return true
	}
}
