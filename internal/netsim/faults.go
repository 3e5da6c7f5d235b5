package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// LinkFault describes a partial failure of one directed link — the fault
// vocabulary the chaos engine (internal/chaos) schedules over the overlay,
// exposed here as a standalone knob so measurement simulations can impair
// individual links too (the global noise knob stays WithNoise). The zero
// value is a healthy link.
type LinkFault struct {
	// Cut hard-partitions the link: every message (and probe sample via
	// Lost) is dropped regardless of Drop.
	Cut bool
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
	// DelayFactor multiplies the link's base propagation delay; zero means
	// unchanged (so the zero value stays a no-op), values > 1 inflate the
	// link, values in (0, 1) would model an improving link.
	DelayFactor float64
	// DelayAddMS is a constant additive latency in milliseconds — a
	// congested or rerouted link's queueing floor.
	DelayAddMS float64
	// JitterMS adds a uniform [0, JitterMS) extra delay per message/probe.
	JitterMS float64
	// DuplicateRate is the probability a message is delivered twice
	// (message-level integrations only; probes are never duplicated).
	DuplicateRate float64
	// ReorderRate is the probability a message is held back one extra
	// jitter window (JitterMS, minimum 1ms) so messages sent after it
	// overtake it — the standard delay-based reordering model.
	ReorderRate float64
}

// IsZero reports whether the fault is a healthy no-op link.
func (f LinkFault) IsZero() bool { return f == LinkFault{} }

// Validate checks all probabilistic fields are probabilities and delays are
// non-negative.
func (f LinkFault) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"DuplicateRate", f.DuplicateRate}, {"ReorderRate", f.ReorderRate}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netsim: link fault %s %v outside [0,1]", p.name, p.v)
		}
	}
	if f.DelayFactor < 0 || f.DelayAddMS < 0 || f.JitterMS < 0 {
		return fmt.Errorf("netsim: link fault has negative delay field (factor=%v add=%v jitter=%v)",
			f.DelayFactor, f.DelayAddMS, f.JitterMS)
	}
	return nil
}

// Merge combines two faults acting on the same link: cuts accumulate, rates
// and factors take the worse of the two, additive delays sum. Merging with
// the zero fault returns the receiver unchanged.
func (f LinkFault) Merge(g LinkFault) LinkFault {
	out := f
	out.Cut = f.Cut || g.Cut
	out.Drop = maxf(f.Drop, g.Drop)
	out.DelayFactor = maxf(f.DelayFactor, g.DelayFactor)
	out.DelayAddMS = f.DelayAddMS + g.DelayAddMS
	out.JitterMS = maxf(f.JitterMS, g.JitterMS)
	out.DuplicateRate = maxf(f.DuplicateRate, g.DuplicateRate)
	out.ReorderRate = maxf(f.ReorderRate, g.ReorderRate)
	return out
}

// DelayMS returns the fault-adjusted one-way delay for a link whose healthy
// delay is baseMS, using u in [0, 1) as the jitter draw (pass 0 for the
// deterministic floor).
func (f LinkFault) DelayMS(baseMS, u float64) float64 {
	d := baseMS
	if f.DelayFactor > 0 {
		d *= f.DelayFactor
	}
	return d + f.DelayAddMS + u*f.JitterMS
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// FaultTable is a concurrency-safe registry of per-directed-link fault
// overrides. A Network carries one (initially empty); the chaos engine keeps
// its own merged table over the overlay's links using the same LinkFault
// vocabulary.
type FaultTable struct {
	mu    sync.RWMutex
	links map[[2]int]LinkFault // guarded by mu
}

// NewFaultTable returns an empty table.
func NewFaultTable() *FaultTable {
	return &FaultTable{links: make(map[[2]int]LinkFault)}
}

// Set installs (replaces) the fault on the directed link u→v. A zero fault
// clears the entry.
func (t *FaultTable) Set(u, v int, f LinkFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.IsZero() {
		delete(t.links, [2]int{u, v})
		return
	}
	t.links[[2]int{u, v}] = f
}

// SetBoth installs the fault on both directions of the link.
func (t *FaultTable) SetBoth(u, v int, f LinkFault) {
	t.Set(u, v, f)
	t.Set(v, u, f)
}

// Clear removes the fault on the directed link u→v.
func (t *FaultTable) Clear(u, v int) { t.Set(u, v, LinkFault{}) }

// Reset removes every fault.
func (t *FaultTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links = make(map[[2]int]LinkFault)
}

// Lookup returns the fault on the directed link u→v; ok is false for a
// healthy link.
func (t *FaultTable) Lookup(u, v int) (LinkFault, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.links[[2]int{u, v}]
	return f, ok
}

// Len returns the number of impaired directed links.
func (t *FaultTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.links)
}

// Faults returns the network's per-link fault table. It starts empty; any
// fault installed applies to subsequent Ping/MeasureMin/Lost calls, making
// the delay oracle's measured (not true) latencies reflect gray links.
func (n *Network) Faults() *FaultTable { return n.faults }

// Lost samples whether a single datagram on u→v is lost to the link's
// configured fault (Cut always loses; otherwise Bernoulli(Drop)). Healthy
// links never lose.
func (n *Network) Lost(rng *rand.Rand, u, v int) bool {
	f, ok := n.faults.Lookup(u, v)
	if !ok {
		return false
	}
	if f.Cut {
		return true
	}
	return f.Drop > 0 && rng.Float64() < f.Drop
}

// EffectiveLatency returns the fault-adjusted one-way delay between u and v
// with no jitter or noise — the deterministic floor a perfect measurement
// would converge to on an impaired link.
func (n *Network) EffectiveLatency(u, v int) float64 {
	base := n.Latency(u, v)
	if f, ok := n.faults.Lookup(u, v); ok {
		return f.DelayMS(base, 0)
	}
	return base
}

// OverlayLatency adapts the network's deterministic delay model to the
// overlay runtime's Config.Latency hook: every proxy-to-proxy delivery is
// charged the fault-adjusted one-way delay of the underlying physical
// path, scaled by `scale` (1.0 charges real milliseconds; a virtual-time
// simulation is free to compress or stretch). Proxy i must live on
// physical node i — callers overlaying a subset of the physical network
// wrap the returned function with their own ID mapping. The result is
// deterministic and safe for concurrent use alongside fault updates.
func (n *Network) OverlayLatency(scale float64) func(u, v int) time.Duration {
	return func(u, v int) time.Duration {
		return time.Duration(n.EffectiveLatency(u, v) * scale * float64(time.Millisecond))
	}
}
