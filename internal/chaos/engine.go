// Package chaos is a deterministic, seeded fault-injection engine for the
// overlay runtime: asymmetric partitions between node sets, per-link loss,
// latency inflation and jitter, duplication, and delay-based reordering,
// driven by a scripted timeline of inject/heal events aligned to protocol
// rounds.
//
// Determinism is the point. Every verdict is a pure hash of (engine seed,
// directed link, message kind, per-link message index) — no shared random
// stream whose draw order would depend on goroutine scheduling — so the same
// seed and schedule produce the same drops, the same duplicates, and the
// same event trace, run after run, even though the overlay executes with
// real concurrency. The trace (schedule events plus sorted per-link counter
// summaries) is byte-identical across runs and is what the regression tests
// snapshot.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hfc/internal/overlay"
)

// Fault is one named impairment of a set of directed links. The zero scope
// (nil From/To/Kinds) matches every payload message; Cut and the rates then
// apply to each matching message independently.
type Fault struct {
	// ID names the fault for Heal calls and trace lines. Required, unique
	// among simultaneously active faults.
	ID string
	// From and To scope the fault to messages from a node in From to a node
	// in To; nil means "any node". Symmetric also matches the reverse
	// direction — a full partition instead of an asymmetric one.
	From, To  []int
	Symmetric bool
	// Kinds restricts the fault to specific message classes (nil = all).
	Kinds []overlay.MsgKind
	// Cut loses every matching message — a partition edge.
	Cut bool
	// Drop loses each matching message with this probability.
	Drop float64
	// DelayMS holds every matching message back by this many simulated
	// milliseconds; JitterMS adds a uniform draw from [0, JitterMS) on top.
	DelayMS, JitterMS float64
	// DuplicateRate delivers a second copy of a matching message with this
	// probability.
	DuplicateRate float64
	// ReorderRate holds a matching message back by ReorderDelayMS with this
	// probability, letting later sends overtake it — reordering expressed
	// as selective lateness. ReorderDelayMS defaults to 1ms when a rate is
	// set without it.
	ReorderRate    float64
	ReorderDelayMS float64
}

// Partition builds a cut between two node sets: traffic a→b is lost, and
// b→a too when symmetric. A nil set means "every node" — note that
// isolating a group therefore takes an explicit complement for b (a nil b
// would cut the group's internal links as well).
func Partition(id string, a, b []int, symmetric bool) Fault {
	return Fault{ID: id, From: a, To: b, Symmetric: symmetric, Cut: true}
}

// Validate checks the fault's rates and scope.
func (f Fault) Validate() error {
	if f.ID == "" {
		return fmt.Errorf("chaos: fault with empty ID")
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"DuplicateRate", f.DuplicateRate}, {"ReorderRate", f.ReorderRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: fault %q: %s %v outside [0,1]", f.ID, r.name, r.v)
		}
	}
	if f.DelayMS < 0 || f.JitterMS < 0 || f.ReorderDelayMS < 0 {
		return fmt.Errorf("chaos: fault %q: negative delay", f.ID)
	}
	if !f.Cut && f.Drop == 0 && f.DelayMS == 0 && f.JitterMS == 0 &&
		f.DuplicateRate == 0 && f.ReorderRate == 0 {
		return fmt.Errorf("chaos: fault %q does nothing", f.ID)
	}
	return nil
}

// activeFault is a Fault with its scope sets precomputed.
type activeFault struct {
	Fault
	from, to map[int]struct{} // nil = wildcard
	kinds    map[overlay.MsgKind]struct{}
}

func newActive(f Fault) *activeFault {
	a := &activeFault{Fault: f}
	if f.ReorderRate > 0 && f.ReorderDelayMS == 0 {
		a.ReorderDelayMS = 1
	}
	toSet := func(ids []int) map[int]struct{} {
		if ids == nil {
			return nil
		}
		m := make(map[int]struct{}, len(ids))
		for _, id := range ids {
			m[id] = struct{}{}
		}
		return m
	}
	a.from, a.to = toSet(f.From), toSet(f.To)
	if f.Kinds != nil {
		a.kinds = make(map[overlay.MsgKind]struct{}, len(f.Kinds))
		for _, k := range f.Kinds {
			a.kinds[k] = struct{}{}
		}
	}
	return a
}

func inSet(m map[int]struct{}, id int) bool {
	if m == nil {
		return true
	}
	_, ok := m[id]
	return ok
}

func (a *activeFault) matches(from, to int, kind overlay.MsgKind) bool {
	if a.kinds != nil {
		if _, ok := a.kinds[kind]; !ok {
			return false
		}
	}
	if inSet(a.from, from) && inSet(a.to, to) {
		return true
	}
	return a.Symmetric && inSet(a.from, to) && inSet(a.to, from)
}

// linkKey identifies one directed link and message class for the counters.
type linkKey struct {
	from, to int
	kind     overlay.MsgKind
}

// linkCounters tallies one directed link's chaos outcomes.
type linkCounters struct {
	seen, dropped, duplicated, delayed uint64
}

// Engine holds the active fault set and implements the overlay's LinkPolicy.
// Inject and Heal are meant to be called between quiesced protocol rounds
// (the Runner does); Policy itself is safe for concurrent use.
type Engine struct {
	seed  uint64
	scale time.Duration

	mu     sync.Mutex
	active []*activeFault            // guarded by mu
	links  map[linkKey]*linkCounters // guarded by mu
}

// DefaultScale converts a fault's simulated milliseconds to wall-clock time:
// 100µs per simulated ms keeps drill runtimes in check while preserving the
// ordering effects delays exist to cause.
const DefaultScale = 100 * time.Microsecond

// NewEngine creates an engine. All verdicts derive from seed; scale is the
// wall-clock duration of one simulated millisecond (0 selects DefaultScale).
func NewEngine(seed uint64, scale time.Duration) *Engine {
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Engine{seed: seed, scale: scale, links: make(map[linkKey]*linkCounters)}
}

// Inject activates a fault. The ID must not collide with an active fault.
func (e *Engine) Inject(f Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.active {
		if a.ID == f.ID {
			return fmt.Errorf("chaos: fault %q already active", f.ID)
		}
	}
	e.active = append(e.active, newActive(f))
	return nil
}

// Heal deactivates a fault by ID, reporting whether it was active.
func (e *Engine) Heal(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, a := range e.active {
		if a.ID == id {
			e.active = append(e.active[:i], e.active[i+1:]...)
			return true
		}
	}
	return false
}

// HealAll deactivates every fault and returns how many there were.
func (e *Engine) HealAll() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.active)
	e.active = nil
	return n
}

// Active returns the IDs of currently active faults in injection order.
func (e *Engine) Active() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.active))
	for i, a := range e.active {
		out[i] = a.ID
	}
	return out
}

// Policy is the overlay LinkPolicy: it merges the active faults matching the
// message's directed link and kind, then decides drop/delay/duplicate from
// the seeded hash of the link's message index. With no matching fault the
// message passes untouched (but is still counted, so traces also record the
// healthy traffic volume on previously faulted links).
func (e *Engine) Policy(from, to int, kind overlay.MsgKind) overlay.LinkVerdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := linkKey{from: from, to: to, kind: kind}
	lc := e.links[key]
	if lc == nil {
		lc = &linkCounters{}
		e.links[key] = lc
	}
	idx := lc.seen
	lc.seen++

	var m Fault
	matched := false
	for _, a := range e.active {
		if !a.matches(from, to, kind) {
			continue
		}
		matched = true
		m.Cut = m.Cut || a.Cut
		m.Drop = max(m.Drop, a.Drop)
		m.DelayMS += a.DelayMS
		m.JitterMS = max(m.JitterMS, a.JitterMS)
		m.DuplicateRate = max(m.DuplicateRate, a.DuplicateRate)
		if a.ReorderRate > m.ReorderRate {
			m.ReorderRate, m.ReorderDelayMS = a.ReorderRate, a.ReorderDelayMS
		}
	}
	if !matched {
		return overlay.LinkVerdict{}
	}

	// Four independent unit draws from one hashed stream: drop, duplicate,
	// jitter, reorder. The stream depends only on (seed, link, kind, idx).
	h := mix64(e.seed, uint64(uint32(from)), uint64(uint32(to)), uint64(kind), idx)
	uDrop, h := unit(h)
	uDup, h := unit(h)
	uJit, h := unit(h)
	uReord, _ := unit(h)

	var v overlay.LinkVerdict
	if m.Cut || uDrop < m.Drop {
		lc.dropped++
		v.Drop = true
		return v
	}
	delayMS := m.DelayMS + uJit*m.JitterMS
	if uReord < m.ReorderRate {
		delayMS += m.ReorderDelayMS
	}
	if delayMS > 0 {
		lc.delayed++
		v.Delay = time.Duration(delayMS * float64(e.scale))
	}
	if uDup < m.DuplicateRate {
		lc.duplicated++
		v.Duplicate = true
	}
	return v
}

// Summary renders the per-link counters of every link a fault ever touched
// (dropped, duplicated, or delayed at least one message), sorted, one line
// per directed link and kind. Together with the schedule's event lines this
// is the deterministic trace.
func (e *Engine) Summary() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]linkKey, 0, len(e.links))
	for k, lc := range e.links {
		if lc.dropped+lc.duplicated+lc.delayed > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.kind < b.kind
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		lc := e.links[k]
		out[i] = fmt.Sprintf("link %d->%d %s: seen=%d dropped=%d dup=%d delayed=%d",
			k.from, k.to, k.kind, lc.seen, lc.dropped, lc.duplicated, lc.delayed)
	}
	return out
}

// splitmix64 is the standard 64-bit mixer (Steele et al.) — tiny, fast, and
// good enough to decorrelate the per-message draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64 folds the inputs into one hash state.
func mix64(vals ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// unit advances the hash stream one step and returns a uniform draw in
// [0, 1) plus the next state.
func unit(h uint64) (float64, uint64) {
	next := splitmix64(h)
	return float64(next>>11) / (1 << 53), next
}
