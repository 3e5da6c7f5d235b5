package vtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refModel is an executable specification of Sim's timer semantics: timers
// are (deadline, seq) pairs fired in lexicographic order whenever virtual
// time advances past them, Stop/Reset report the armed flag, and re-arming
// takes a fresh sequence number. The property tests drive the same op
// stream through refModel and a real Sim and require identical fire logs
// and return values.
type refModel struct {
	now    time.Duration
	seq    uint64
	timers []*refTimer
	log    []string
}

type refTimer struct {
	id       int
	armed    bool
	deadline time.Duration
	seq      uint64
	children []refChild // armed, in order, when the timer fires
}

type refChild struct {
	id    int
	delay time.Duration
}

func (m *refModel) arm(t *refTimer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.seq++
	t.armed, t.deadline, t.seq = true, m.now+d, m.seq
}

func (m *refModel) afterFunc(id int, d time.Duration, children ...refChild) *refTimer {
	t := &refTimer{id: id, children: children}
	m.arm(t, d)
	m.timers = append(m.timers, t)
	return t
}

func (m *refModel) stop(t *refTimer) bool {
	was := t.armed
	t.armed = false
	return was
}

func (m *refModel) reset(t *refTimer, d time.Duration) bool {
	was := t.armed
	m.arm(t, d)
	return was
}

// sleep advances to now+d, firing every armed timer whose (deadline, seq)
// precedes the sleeper's own wake event — exactly the Sim heap order.
func (m *refModel) sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.seq++
	wakeSeq := m.seq
	target := m.now + d
	for {
		var next *refTimer
		for _, t := range m.timers {
			if !t.armed {
				continue
			}
			if t.deadline > target || (t.deadline == target && t.seq > wakeSeq) {
				continue
			}
			if next == nil || t.deadline < next.deadline ||
				(t.deadline == next.deadline && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.armed = false
		if next.deadline > m.now {
			m.now = next.deadline
		}
		m.log = append(m.log, fmt.Sprintf("%v fire %d", m.now, next.id))
		for _, c := range next.children {
			m.afterFunc(c.id, c.delay)
		}
	}
	m.now = target
}

// drain fires everything still pending by sleeping past the last deadline.
func (m *refModel) drain() {
	var maxD time.Duration
	for _, t := range m.timers {
		if t.armed && t.deadline > maxD {
			maxD = t.deadline
		}
	}
	// Children armed during the drain land at child deadlines <= deadline +
	// childDelay; childDelay is bounded by maxOpDelay, so one generous pass
	// suffices for the depth-1 children the op stream creates.
	m.sleep(maxD - m.now + 10*maxOpDelay)
}

const maxOpDelay = 64 * time.Millisecond

// simOp is one step of the interleaving: create, create-with-child, stop,
// reset, sleep, post, or post-batch. To the model a post is a timer nobody
// holds, so nothing can stop or reset it, and a batch is the loop of posts
// over its entries.
type simOp struct {
	kind  byte // 'n' new, 'c' new-with-child, 's' stop, 'r' reset, 'z' sleep, 'p' post, 'b' post-batch
	delay time.Duration
	aux   time.Duration // child delay / reset duration / a batch's second deadline
	index int           // timer selector for stop/reset (mod live count); shape of a batch
}

// batchEntry is one entry of a 'b' op. A spawning entry's callback posts a
// same-instant event and then a two-entry batch handed over latest first.
type batchEntry struct {
	delay  time.Duration
	spawns bool
}

// batchOf expands a 'b' op: index%6 entries — none, one, or a mix of two
// deadlines with ties, a zero and, after it in the caller's order, a negative
// delay — and, when bit 3 of index is set, a spawning entry in the middle.
func batchOf(op simOp) []batchEntry {
	es := make([]batchEntry, op.index%6)
	for j := range es {
		switch j {
		case 0, 2:
			es[j].delay = op.delay
		case 1:
			es[j].delay = op.aux
		case 4:
			es[j].delay = -op.aux
		}
		es[j].spawns = op.index&8 != 0 && j == len(es)/2
	}
	return es
}

// ids is how many log ids an op consumes.
func (op simOp) ids() int {
	switch op.kind {
	case 'n', 'p':
		return 1
	case 'c':
		return 2
	case 'b':
		n := 0
		for _, e := range batchOf(op) {
			n++
			if e.spawns {
				n += 3
			}
		}
		return n
	}
	return 0
}

// runOps executes the op stream against both the model and a live Sim and
// reports the first divergence.
func runOps(t *testing.T, ops []simOp) {
	t.Helper()
	model := &refModel{}
	nextID := 0
	var mTimers []*refTimer
	for _, op := range ops {
		switch op.kind {
		case 'n':
			mTimers = append(mTimers, model.afterFunc(nextID, op.delay))
		case 'c':
			mTimers = append(mTimers, model.afterFunc(nextID, op.delay, refChild{nextID + 1, op.aux}))
		case 's':
			if len(mTimers) > 0 {
				tm := mTimers[op.index%len(mTimers)]
				model.log = append(model.log, fmt.Sprintf("%v stop %d -> %v", model.now, tm.id, model.stop(tm)))
			}
		case 'r':
			if len(mTimers) > 0 {
				tm := mTimers[op.index%len(mTimers)]
				model.log = append(model.log, fmt.Sprintf("%v reset %d -> %v", model.now, tm.id, model.reset(tm, op.aux)))
			}
		case 'z':
			model.sleep(op.delay)
		case 'p':
			model.afterFunc(nextID, op.delay)
		case 'b':
			id := nextID
			for _, e := range batchOf(op) {
				if e.spawns {
					model.afterFunc(id, e.delay, refChild{id + 1, 0}, refChild{id + 2, op.aux}, refChild{id + 3, 0})
					id += 3
				} else {
					model.afterFunc(id, e.delay)
				}
				id++
			}
		}
		nextID += op.ids()
	}
	model.drain()

	s := NewSim()
	var log []string
	s.Run(func() {
		nextID := 0
		var timers []Timer
		fire := func(id int) func() {
			return func() { log = append(log, fmt.Sprintf("%v fire %d", s.Now(), id)) }
		}
		posted := func(id int) { log = append(log, fmt.Sprintf("%v fire %d", s.Now(), id)) }
		spawners := map[int]time.Duration{} // a spawning batch entry's id -> its op's aux
		var batched func(id int)
		batched = func(id int) {
			posted(id)
			if aux, ok := spawners[id]; ok {
				s.Post(0, posted, id+1)
				s.PostBatch(batched, []Due{{aux, id + 2}, {0, id + 3}})
			}
		}
		for _, op := range ops {
			switch op.kind {
			case 'n':
				timers = append(timers, s.AfterFunc(op.delay, fire(nextID)))
			case 'c':
				id, childID := nextID, nextID+1
				childDelay := op.aux
				timers = append(timers, s.AfterFunc(op.delay, func() {
					log = append(log, fmt.Sprintf("%v fire %d", s.Now(), id))
					s.AfterFunc(childDelay, fire(childID))
				}))
			case 's':
				if len(timers) > 0 {
					i := op.index % len(timers)
					log = append(log, fmt.Sprintf("%v stop %d -> %v", s.Now(), timerID(ops, i), timers[i].Stop()))
				}
			case 'r':
				if len(timers) > 0 {
					i := op.index % len(timers)
					log = append(log, fmt.Sprintf("%v reset %d -> %v", s.Now(), timerID(ops, i), timers[i].Reset(op.aux)))
				}
			case 'z':
				s.Sleep(op.delay)
			case 'p':
				s.Post(op.delay, posted, nextID)
			case 'b':
				var dues []Due
				id := nextID
				for _, e := range batchOf(op) {
					dues = append(dues, Due{e.delay, id})
					if e.spawns {
						spawners[id] = op.aux
						id += 3
					}
					id++
				}
				s.PostBatch(batched, dues)
			}
			nextID += op.ids()
		}
		s.WaitIdle()
	})

	got, want := strings.Join(log, "\n"), strings.Join(model.log, "\n")
	if got != want {
		t.Fatalf("sim diverges from reference model\nops: %+v\n--- sim ---\n%s\n--- model ---\n%s", ops, got, want)
	}
}

// timerID maps the i-th created Timer back to its log id (child timers of
// 'c' ops, posts and batch entries consume ids without appearing in the
// timers slice).
func timerID(ops []simOp, i int) int {
	id := 0
	n := 0
	for _, op := range ops {
		if op.kind == 'n' || op.kind == 'c' {
			if n == i {
				return id
			}
			n++
		}
		id += op.ids()
	}
	return -1
}

// TestTimerModelProperty drives 300 random interleavings of
// AfterFunc/Stop/Reset/Sleep/Post/PostBatch (including callbacks that arm
// child timers or post from inside a batch) through Sim and the reference
// model. Half the deadlines sit on a 4 ms grid, so same-instant ties between
// batches, posts, timers and sleepers are common rather than freak.
func TestTimerModelProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nOps := 5 + rng.Intn(40)
		ops := make([]simOp, 0, nOps)
		for i := 0; i < nOps; i++ {
			op := simOp{
				delay: time.Duration(rng.Intn(int(maxOpDelay))),
				aux:   time.Duration(rng.Intn(int(maxOpDelay))),
				index: rng.Intn(64),
			}
			if seed%2 == 1 {
				op.delay -= op.delay % (4 * time.Millisecond)
				op.aux -= op.aux % (4 * time.Millisecond)
			}
			switch rng.Intn(10) {
			case 0, 1:
				op.kind = 'n'
			case 2:
				op.kind = 'c'
			case 3:
				op.kind = 's'
			case 4:
				op.kind = 'r'
			case 5:
				op.kind = 'z'
			case 6, 7:
				op.kind = 'p'
			case 8, 9:
				op.kind = 'b'
			}
			ops = append(ops, op)
		}
		ops = append(ops, simOp{kind: 'z', delay: maxOpDelay})
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runOps(t, ops) })
	}
}

// decodeOps turns fuzz bytes into a bounded op stream: each op is 4 bytes
// (kind, delay, aux, index).
func decodeOps(data []byte) []simOp {
	var ops []simOp
	for i := 0; i+3 < len(data) && len(ops) < 256; i += 4 {
		op := simOp{
			delay: time.Duration(data[i+1]) * time.Millisecond / 4,
			aux:   time.Duration(data[i+2]) * time.Millisecond / 4,
			index: int(data[i+3]),
		}
		switch data[i] % 7 {
		case 0:
			op.kind = 'n'
		case 1:
			op.kind = 'c'
		case 2:
			op.kind = 's'
		case 3:
			op.kind = 'r'
		case 4:
			op.kind = 'z'
		case 5:
			op.kind = 'p'
		case 6:
			op.kind = 'b'
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzVTimeSchedule fuzzes arbitrary timer-op schedules against the
// reference model.
func FuzzVTimeSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 4, 20, 0, 0})                                   // new + sleep
	f.Add([]byte{1, 8, 8, 0, 2, 0, 0, 0, 4, 40, 0, 0})                        // child + stop + sleep
	f.Add([]byte{0, 0, 0, 0, 3, 4, 0, 0, 4, 0, 0, 0, 4, 1, 0, 0})             // zero-delay churn
	f.Add([]byte{1, 2, 2, 1, 1, 2, 2, 1, 3, 0, 1, 1, 4, 3, 0, 0})             // same-instant pileup
	f.Add([]byte{5, 8, 0, 0, 0, 8, 0, 0, 5, 8, 0, 0, 2, 0, 0, 0, 4, 9, 0, 0}) // posts among timers at one instant
	f.Add([]byte{6, 8, 8, 3, 4, 9, 0, 0})                                     // a batch with every entry at one instant
	f.Add([]byte{6, 0, 0, 3, 0, 0, 0, 0, 6, 0, 0, 2, 4, 0, 0, 0})             // two batches, a timer and a Sleep(0) tied at one instant
	f.Add([]byte{6, 4, 4, 9, 5, 4, 0, 0, 4, 20, 0, 0})                        // an entry whose callback posts a same-instant event and a batch
	f.Add([]byte{6, 2, 6, 5, 6, 6, 2, 11, 4, 20, 0, 0})                       // zero and negative delays mixed: clamp, then sort
	f.Add([]byte{6, 5, 0, 1, 0, 5, 0, 0, 4, 9, 0, 0})                         // a batch of one
	f.Add([]byte{6, 5, 0, 0, 0, 5, 0, 0, 6, 5, 0, 6, 4, 9, 0, 0})             // empty batches
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		runOps(t, ops)
	})
}
