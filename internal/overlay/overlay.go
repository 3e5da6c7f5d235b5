// Package overlay runs the HFC framework as a message-passing system of
// proxy nodes exchanging the §4 state protocol messages (local-state floods,
// aggregate-state border exchange and forwarding) and resolving §5 service
// requests by RPC — the destination proxy computes the cluster-level path
// from its own converged tables and sends child requests to the resolver
// proxies of the clusters involved.
//
// The protocol is written once and does not know how its messages travel.
// Delivery sits behind one unexported seam, the driver (driver.go), chosen in
// New from Config.Clock: the mailbox driver gives every proxy a goroutine and
// a bounded inbox on a real-time clock; the event driver (driver_sim.go) runs
// the same handlers as discrete events of a virtual clock's single-threaded
// scheduler, which is what makes a seeded run byte-reproducible.
//
// The same algorithm code as the synchronous simulation (packages state and
// routing) runs here against each node's privately accumulated state, so
// integration tests can check that the distributed execution converges to
// exactly what the synchronous model predicts.
package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// Config tunes the runtime.
type Config struct {
	// Clock is the time source for every delay, deadline, and backoff in
	// the runtime, and picks the driver. Nil selects the wall clock and the
	// mailbox driver (production behaviour). A virtual clock (vtime.NewSim)
	// selects the event driver: no per-node goroutines, deliveries are
	// discrete events on the clock's single-threaded scheduler, and every
	// driving call (TriggerStateRound, Route, Execute, Quiesce) must be made
	// from one of its tasks (inside Run). Same protocol code, two drivers.
	Clock vtime.Clock
	// DelayPerUnit, when positive, makes message delivery between nodes u
	// and v take Dist(u,v)·DelayPerUnit of clock time, simulating
	// network latency. Zero delivers immediately (default); New rejects a
	// negative value.
	DelayPerUnit time.Duration
	// Latency, when non-nil, adds its per-link duration to every
	// node-to-node delivery on top of DelayPerUnit — the hook netsim's
	// measured-delay model (netsim.Network.OverlayLatency) plugs in. It
	// must be deterministic and safe for concurrent use.
	Latency func(from, to int) time.Duration
	// DropRate, in [0, 1], makes EVERY node-to-node message — state
	// protocol, route and child RPCs, data-plane forwards — be lost with
	// this probability. The RPC paths survive it by deadline + retry; the
	// periodic protocol needs no retry because the next round resends
	// everything. Default 0. New rejects a rate outside the range, NaN
	// included, here and for ProtocolDropRate.
	DropRate float64
	// ProtocolDropRate, in [0, 1], additionally drops only state-protocol
	// messages (local-state floods, aggregate exchange and forwards) —
	// the knob the convergence experiments use to stress §4 without
	// touching request traffic. Protocol messages are dropped at
	// max(DropRate, ProtocolDropRate). Default 0.
	ProtocolDropRate float64
	// DropSeed seeds the drop decisions so failure tests are
	// reproducible.
	DropSeed int64
	// RouteTimeout bounds each attempt of a Route (and Execute) call; on
	// expiry the request is retried up to RPCRetries more times with
	// exponential backoff, then fails with ErrRPCTimeout. Default 2s.
	RouteTimeout time.Duration
	// RPCTimeout bounds each attempt of an internal child-request RPC.
	// After RPCRetries extra attempts against the designated resolver the
	// caller fails over to the next candidate resolver of the target
	// cluster. Default 250ms.
	RPCTimeout time.Duration
	// RPCRetries is how many extra attempts follow a timed-out first
	// attempt (per resolver candidate for child RPCs). Default 2; set -1
	// for zero retries.
	RPCRetries int
	// RPCBackoff is the pause before the first retry, doubling on each
	// further one. Default 5ms.
	RPCBackoff time.Duration
	// CacheRoutes enables the invalidation-aware route cache: Route
	// answers repeated (source, service graph, destination) questions from
	// cache until a state round, capability update, or crash/recovery in a
	// cluster the cached path depends on invalidates the entry. On in the
	// chaos runs and BenchmarkGateResolveUnderChaos; off by default and in
	// Simulate, overlaysim and protocol-sim, whose probes exist to exercise
	// the RPC path a hit would skip (and would move their traffic and digests).
	CacheRoutes bool
	// LinkPolicy, when non-nil, is consulted for every node-to-node
	// payload message (never for externally injected control traffic) and
	// can drop, delay, or duplicate it — the hook the chaos engine
	// (internal/chaos) injects link-level faults through. It must be safe
	// for concurrent use and is called on the sender's goroutine.
	LinkPolicy func(from, to int, kind MsgKind) LinkVerdict
	// Health configures the accrual failure detector (see health.go):
	// gray nodes — alive but silent or missing deadlines — accumulate
	// suspicion and are quarantined out of border election and
	// provider/resolver choice until they behave again. The zero value
	// disables it.
	Health HealthConfig
	// DegradedRoutes keeps a last-known-good result per (source, service
	// graph, destination): when every Route attempt times out — the
	// destination or its resolvers partitioned away — the stale result is
	// served with Result.Degraded set instead of an error. Default off.
	// It is the same store as CacheRoutes' — an entry that is no longer
	// fresh — read through its stale-tolerant door.
	DegradedRoutes bool
}

// MsgKind identifies a runtime message class to the LinkPolicy hook.
type MsgKind int

// The message kinds a LinkPolicy can act on, mirroring the runtime's
// internal envelope kinds: §4 local-state floods, aggregate border
// exchange/forwards, the state-round trigger (control; never offered to the
// policy), §5 route and child RPCs, and data-plane forwards.
const (
	MsgLocal     MsgKind = MsgKind(kindLocal)
	MsgAggregate MsgKind = MsgKind(kindAggregate)
	MsgTrigger   MsgKind = MsgKind(kindTrigger)
	MsgRoute     MsgKind = MsgKind(kindRoute)
	MsgChild     MsgKind = MsgKind(kindChild)
	MsgData      MsgKind = MsgKind(kindData)
)

// String names the kind for traces.
func (k MsgKind) String() string {
	switch k {
	case MsgLocal:
		return "local"
	case MsgAggregate:
		return "aggregate"
	case MsgTrigger:
		return "trigger"
	case MsgRoute:
		return "route"
	case MsgChild:
		return "child"
	case MsgData:
		return "data"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// LinkVerdict is a LinkPolicy's decision for one message.
type LinkVerdict struct {
	// Drop loses the message (counted in FaultStats.DroppedByPolicy).
	Drop bool
	// Delay holds delivery back by this much wall-clock time, on top of
	// any configured DelayPerUnit latency. A negative value counts as zero.
	Delay time.Duration
	// Duplicate delivers a second copy of the message (after the same
	// delay) — retransmission storms and routing loops in one knob.
	Duplicate bool
}

func (c Config) withDefaults() Config {
	if c.RouteTimeout == 0 {
		c.RouteTimeout = 2 * time.Second
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 250 * time.Millisecond
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	} else if c.RPCRetries < 0 {
		c.RPCRetries = 0
	}
	if c.RPCBackoff == 0 {
		c.RPCBackoff = 5 * time.Millisecond
	}
	c.Health = c.Health.withDefaults()
	return c
}

// ErrRPCTimeout is returned (wrapped) when every attempt of a Route,
// Execute, or child RPC misses its deadline — the destination is crashed,
// unreachable, or every resolver candidate is down.
var ErrRPCTimeout = errors.New("rpc deadline exceeded")

// System is a running overlay of concurrent proxy nodes.
type System struct {
	topo *hfc.Topology
	// drv carries every message and every wait; chosen once in New and the
	// only part of the System that knows which clock it runs on.
	drv driver
	// capsMu protects the ground-truth deployment slice; stored sets are
	// treated as immutable (replaced, never mutated).
	capsMu sync.RWMutex
	caps   []svc.CapabilitySet // guarded by capsMu
	// capGen[i] is bumped whenever node i's deployment changes; floods
	// carry it so receivers that already hold the generation can take the
	// sequence-only fast path instead of re-installing an identical set.
	capGen []uint64 // guarded by capsMu
	// aggGenCtr issues System-unique aggregate generations: every border
	// that rebuilds its cluster union draws a fresh value, so a matching
	// generation at a receiver always means an identical set.
	aggGenCtr atomic.Uint64
	// repairEpoch[c] advances whenever some member of cluster c may have
	// missed an aggregate re-flood (a dropped forward, a recovery with
	// wiped tables). Borders skip the per-round intra-cluster re-flood of
	// an unchanged aggregate only while the epoch they last forwarded
	// under still stands; a bump forces one full repair re-flood.
	repairEpoch []atomic.Uint32
	cfg         Config
	nodes       []*node

	// duty is the border table the current round exchanges aggregates
	// over: the one dyn had published when TriggerStateRound ran, fixed
	// before the round's triggers go out.
	duty atomic.Pointer[hfc.DenseTables]

	// mu guards the start/stop lifecycle flags.
	mu      sync.Mutex
	started bool // guarded by mu
	stopped bool // guarded by mu

	// crashed[i] marks node i fail-stopped: every message addressed to it
	// is silently discarded (and counted) at send time.
	crashed []atomic.Bool

	// round is the §4 protocol round counter; every protocol message is
	// stamped with it so stale (delayed or replayed) floods are rejected
	// by the per-entry sequence check.
	round atomic.Uint64

	// dyn is the incremental §5.2 border maintainer every node's view is
	// attached to: on crash/recovery only the affected cluster's border
	// elections are redone, instead of rebuilding the whole topology, and
	// the views read the table it publishes. It serialises its own
	// writers.
	dyn *hfc.Dynamic

	// cache, when non-nil (Config.CacheRoutes or Config.DegradedRoutes),
	// keeps every resolved route: CacheRoutes answers repeated Route calls
	// from its fresh entries, DegradedRoutes a partitioned one from its
	// last-known-good ones. It is internally synchronized, and cached results
	// are shared read-only values.
	cache *routing.RouteCache

	// dropRng drives fault injection; the *rand.Rand pointer is immutable
	// after New, but the generator's internal state is not concurrency-safe,
	// so every draw happens under dropMu.
	dropMu  sync.Mutex
	dropRng *rand.Rand
	faults  FaultStats // guarded by dropMu

	// statMu protects the delivered-message counters.
	statMu sync.Mutex
	stats  TrafficStats // guarded by statMu

	// lastHeard[i] is the highest protocol round in which some node
	// received a flood from node i — the silence signal the accrual
	// detector scores round gaps from. Nil when Health is disabled.
	lastHeard []atomic.Uint64

	// quarantined[i] marks node i suspected gray: still running and still
	// receiving traffic, but excluded from border election and
	// provider/resolver choice until its suspicion decays.
	quarantined []atomic.Bool

	// healthMu guards the suspicion scores and health counters; it is
	// never held while dyn re-elects (transitions decide under healthMu,
	// then apply).
	healthMu    sync.Mutex
	suspicion   []float64   // guarded by healthMu
	healthStats HealthStats // guarded by healthMu
}

// FaultStats counts fault-injection and recovery events in the runtime.
type FaultStats struct {
	// Dropped is the number of messages lost to random drop injection
	// (DropRate / ProtocolDropRate).
	Dropped int
	// DroppedToCrashed counts messages discarded because the destination
	// was crashed at send time.
	DroppedToCrashed int
	// DroppedAfterStop counts sends that arrived after Stop — counted
	// no-ops, never a panic.
	DroppedAfterStop int
	// DroppedBackpressure counts protocol messages shed because the
	// destination mailbox was full: the mailbox loop never blocks on a
	// saturated peer (that cycle is a distributed deadlock), and the next
	// periodic round resends everything anyway.
	DroppedBackpressure int
	// StaleRejected counts protocol messages rejected by the sequence
	// check (a delayed or replayed flood carrying an older round).
	StaleRejected int
	// RPCRetries counts re-sent route/child RPC attempts after a missed
	// deadline.
	RPCRetries int
	// ResolverFailovers counts child requests answered by an alternate
	// resolver after the designated one failed to reply.
	ResolverFailovers int
	// DroppedByPolicy and DuplicatedByPolicy count messages the LinkPolicy
	// hook (chaos injection) lost or doubled.
	DroppedByPolicy, DuplicatedByPolicy int
	// DegradedRoutes counts Route calls answered from the last-known-good
	// store after every fresh attempt timed out.
	DegradedRoutes int
}

// TrafficStats counts messages the runtime actually delivered, by kind.
type TrafficStats struct {
	// Local counts §4 local-state floods; Aggregate counts border
	// exchanges plus intra-cluster forwards (the synchronous model's
	// AggregateMessages + ForwardMessages).
	Local, Aggregate int
	// Route and Child count request-processing RPCs; Data counts
	// data-plane forwards (Execute).
	Route, Child, Data int
}

// Total returns the total delivered message count.
func (t TrafficStats) Total() int {
	return t.Local + t.Aggregate + t.Route + t.Child + t.Data
}

// message is the mailbox envelope. Exactly one field group is set.
//
// A message is immutable once sent: send and the drivers carry it by
// reference, a flood hands one message to every recipient, and a delayed one
// stays referenced until it is delivered. Handlers receive a copy.
//
// Capability payloads travel as shared immutable CapabilitySets — one set
// per flood, referenced by every receiver — instead of per-receiver service
// slices: at n=32k a single protocol round delivers ~10⁷ messages, and
// materializing a fresh set per delivery is the difference between a
// two-second round and a two-minute one. The runtime-wide convention that
// stored sets are replaced, never mutated, is what makes the sharing safe.
type message struct {
	// local-state flood (§4 step 1). localGen is the sender's capability
	// generation: a receiver that already installed this generation holds
	// byte-identical content and treats the flood as a no-op. Zero means
	// "unknown generation, always install". localRank is the sender's
	// index in its own (sorted) cluster membership — every cluster peer
	// shares that ordering, so it names the receiver's SCT_P slot.
	localFrom int
	localRank int
	localSet  svc.CapabilitySet
	localGen  uint64

	// aggregate-state exchange/forward (§4 step 2). aggGen identifies the
	// aggregate rebuild that produced aggSet (unique across the System): a
	// receiver that already installed this generation for aggCluster holds
	// byte-identical content and skips the table write. Zero means
	// "unknown generation, always install".
	aggCluster int
	aggSet     svc.CapabilitySet
	aggGen     uint64
	aggForward bool // true when this node must re-flood it intra-cluster

	// broadcast trigger (control).
	trigger bool

	// seq is the protocol round the message belongs to (local/aggregate/
	// trigger kinds); receivers reject entries older than what they hold.
	seq uint64

	// route request (full §5 routing at this node) or child request
	// (intra-cluster resolution at this node); reply is where the answer to
	// either goes.
	routeReq *svc.Request
	childReq *routing.ChildRequest
	reply    replyCell

	// data-plane stream step (see execute.go).
	data *dataMsg

	kind msgKind
}

type msgKind int

const (
	kindLocal msgKind = iota + 1
	kindAggregate
	kindTrigger
	kindRoute
	kindChild
	kindData
)

// blocks reports whether handling a message of this kind may wait for
// replies of its own (the RPC and data-plane kinds), so a driver must run it
// beside the node's message loop rather than on it: a node blocked composing
// a path keeps serving child requests, and a data chain sending onward can
// never stall message consumption — no distributed deadlock.
func (k msgKind) blocks() bool { return k >= kindRoute }

// answer is what an RPC returns: result for a route request, path for a
// child request, trace for a data-plane stream, or err.
type answer struct {
	result *routing.Result
	path   *routing.Path
	trace  *ExecutionTrace
	err    error
}

// node is one proxy's runtime.
type node struct {
	id   int
	sys  *System
	view *hfc.NodeView
	// rank is this node's own index in view.Members, stamped on floods so
	// receivers skip the lookup (immutable after New).
	rank int
	// st guards the node's routing state, which worker goroutines read.
	st sync.RWMutex
	// state holds the node's tables, sized once (in New) like the
	// three slices below; floods store into them, Recover clears them.
	state state.NodeState // guarded by st
	// genSeen[r] is the capability generation last installed from the
	// cluster member with rank r in view.Members — the token that lets a
	// re-flood of unchanged capabilities skip the set install (and so skip
	// re-unioning the cluster aggregate).
	genSeen []uint64 // guarded by st
	// aggGenSeen[c] is the aggregate generation last installed for cluster
	// c — the cluster-level counterpart of genSeen that lets the per-round
	// aggregate re-flood skip the Seq/SCTC stores when nothing changed.
	// SCTC[own] is the node's own union over SCTP and aggGenSeen[own] its
	// generation (from System.aggGenCtr, unique across borders); 0 means SCTP
	// moved since, and only then does broadcast re-union |C| sets.
	aggGenSeen []uint64 // guarded by st
	// fwdEpoch[c] is the repair epoch of this node's own cluster at the
	// time it last re-flooded cluster c's aggregate intra-cluster.
	fwdEpoch []uint32 // guarded by st
}

// New builds a system over a constructed HFC topology and per-proxy
// capabilities. Call Start to set it running.
func New(topo *hfc.Topology, caps []svc.CapabilitySet, cfg Config) (*System, error) {
	if topo == nil {
		return nil, errors.New("overlay: nil topology")
	}
	if len(caps) != topo.N() {
		return nil, fmt.Errorf("overlay: %d capability sets for %d nodes", len(caps), topo.N())
	}
	cfg = cfg.withDefaults()
	// Written so that NaN, which compares false to everything and would
	// then never drop, is outside the range too.
	if !(cfg.DropRate >= 0 && cfg.DropRate <= 1) {
		return nil, fmt.Errorf("overlay: drop rate %v outside [0,1]", cfg.DropRate)
	}
	if !(cfg.ProtocolDropRate >= 0 && cfg.ProtocolDropRate <= 1) {
		return nil, fmt.Errorf("overlay: protocol drop rate %v outside [0,1]", cfg.ProtocolDropRate)
	}
	if cfg.DelayPerUnit < 0 {
		return nil, fmt.Errorf("overlay: negative delay per unit %v", cfg.DelayPerUnit)
	}
	var cache *routing.RouteCache
	if cfg.CacheRoutes || cfg.DegradedRoutes {
		cache = routing.NewRouteCache()
	}
	s := &System{topo: topo, caps: caps, cfg: cfg, dyn: hfc.NewDynamic(topo), cache: cache}
	s.capsMu.Lock()
	s.capGen = make([]uint64, topo.N())
	for i := range s.capGen {
		s.capGen[i] = 1
	}
	s.capsMu.Unlock()
	s.repairEpoch = make([]atomic.Uint32, topo.NumClusters())
	if cfg.DropRate > 0 || cfg.ProtocolDropRate > 0 {
		s.dropRng = rand.New(rand.NewSource(cfg.DropSeed))
	}
	s.crashed = make([]atomic.Bool, topo.N())
	s.quarantined = make([]atomic.Bool, topo.N())
	if cfg.Health.Enabled {
		s.lastHeard = make([]atomic.Uint64, topo.N())
		s.healthMu.Lock()
		s.suspicion = make([]float64, topo.N())
		s.healthMu.Unlock()
	}
	// Tables are sized for good: the nodes are one allocation and each cluster's
	// tables three slabs — sets (SCT_P, SCT_C), stamps (Seq, genSeen,
	// aggGenSeen), forward epochs — cut into one run per member: a proxy's state
	// is (members + K) slots per table and a round allocates none of it.
	k := topo.NumClusters()
	nodes := make([]node, topo.N())
	s.nodes = make([]*node, len(nodes))
	// The runtime's crash registry plus the accrual quarantine set double as
	// every node's failure detector: intra-cluster provider and resolver
	// choice skip nodes reported dead or suspected gray. A deployment would
	// plug a gossip or heartbeat detector in here.
	alive := func(id int) bool { return !s.IsCrashed(id) && !s.IsQuarantined(id) }
	for c := 0; c < k; c++ {
		members := topo.Members(c)
		m := len(members)
		sets := make([]svc.CapabilitySet, m*(m+k))
		stamps := make([]uint64, 2*m*(m+k))
		epochs := make([]uint32, m*k)
		for r, i := range members {
			// A shared view is O(1) per node (hfc.Topology.SharedView) and the
			// runtime never mutates what it aliases. Attached to dyn, its border
			// lookups read the live elections (§5.2): with no churn the static
			// pairs; after a crash the re-elected closest live pair.
			view, err := s.dyn.SharedView(i)
			if err != nil {
				return nil, fmt.Errorf("overlay: %w", err)
			}
			view.Alive = alive
			// A booting proxy knows itself (see forgetLocked); the slabs are
			// fresh, so every other slot already reads "not learned".
			sctp, sctc := carve(&sets, m), carve(&sets, k)
			sctp[r] = caps[i].Clone()
			sctc[c] = sctp[r]
			nodes[i] = node{
				id:         i,
				sys:        s,
				view:       view,
				rank:       r,
				state:      state.NodeState{Node: i, SCTP: sctp, SCTC: sctc, Seq: carve(&stamps, m+k)},
				genSeen:    carve(&stamps, m),
				aggGenSeen: carve(&stamps, k),
				fwdEpoch:   carve(&epochs, k),
			}
			s.nodes[i] = &nodes[i]
		}
	}
	s.drv = newDriver(s)
	return s, nil
}

// carve cuts the next n elements off the front of *slab, capped so that an
// append to one piece can never reach the next.
func carve[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// forgetLocked leaves the node knowing what a freshly booted proxy knows: its
// own capability and its cluster's aggregate of what it has seen so far —
// just itself. The round trackers are not touched (see Recover).
func (n *node) forgetLocked(caps svc.CapabilitySet) {
	clear(n.state.SCTP)
	clear(n.state.SCTC)
	n.state.SCTP[n.rank] = caps.Clone()
	n.state.SCTC[n.view.ClusterID] = n.state.SCTP[n.rank]
	// The generation tokens describe the wiped tables; a cleared
	// aggGenSeen[own] has the next broadcast re-union SCT_P.
	clear(n.genSeen)
	clear(n.aggGenSeen)
	clear(n.fwdEpoch)
}

// Start sets the system running. It is an error to start twice.
func (s *System) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("overlay: already started")
	}
	s.started = true
	s.drv.start()
	return nil
}

// Stop shuts the system down and waits until everything the driver runs
// has exited. Safe to call once; subsequent calls return an error. Sends
// racing Stop are counted no-ops (FaultStats.DroppedAfterStop), never a
// panic. RPC waits and retry backoffs in flight are released immediately
// instead of sleeping out their deadlines.
func (s *System) Stop() error {
	s.mu.Lock()
	if !s.started || s.stopped {
		s.mu.Unlock()
		return errors.New("overlay: not running")
	}
	s.stopped = true
	s.mu.Unlock()
	s.drv.stop()
	return nil
}

// send delivers a message to node `to`, optionally after the simulated
// network delay from node `from` (-1 for external injection, no delay): fate
// decides, the driver carries. From here on m is shared (see message) and
// must not be written again.
func (s *System) send(from, to int, m *message) {
	for d, copies := s.fate(from, to, m); copies > 0; copies-- {
		s.drv.post(from, to, m, d)
	}
}

// fate is every verdict on one message at send time: how many copies of m
// reach node `to` — none when it is lost, two when the link policy duplicates
// it — and after what link delay. Messages to crashed nodes are counted
// no-ops; all payload kinds are subject to the configured drop rates and the
// LinkPolicy hook (trigger messages are control-plane injections and never
// drop randomly; external injections never face the link policy — a client's
// request enters at its destination, it does not cross simulated links). A
// flood asks once per recipient, in member order, so policy calls and drop
// draws come in the order the messages were sent.
func (s *System) fate(from, to int, m *message) (d time.Duration, copies int) {
	if s.crashed[to].Load() {
		s.dropMu.Lock()
		s.faults.DroppedToCrashed++
		s.dropMu.Unlock()
		return 0, 0
	}
	// d is the link delay: policy-injected extra plus configured latency.
	duplicate := false
	if s.cfg.LinkPolicy != nil && from >= 0 && from != to && m.kind != kindTrigger {
		v := s.cfg.LinkPolicy(from, to, MsgKind(m.kind))
		if v.Drop {
			s.dropMu.Lock()
			s.faults.DroppedByPolicy++
			s.dropMu.Unlock()
			s.noteAggDrop(to, m)
			return 0, 0
		}
		// A verdict holds delivery back; it cannot make a link faster than
		// it is configured to be.
		if v.Delay > 0 {
			d = v.Delay
		}
		duplicate = v.Duplicate
	}
	if s.dropRng != nil && m.kind != kindTrigger {
		rate := s.cfg.DropRate
		if (m.kind == kindLocal || m.kind == kindAggregate) && s.cfg.ProtocolDropRate > rate {
			rate = s.cfg.ProtocolDropRate
		}
		if rate > 0 {
			s.dropMu.Lock()
			drop := s.dropRng.Float64() < rate
			if drop {
				s.faults.Dropped++
			}
			s.dropMu.Unlock()
			if drop {
				s.noteAggDrop(to, m)
				return 0, 0
			}
		}
	}
	if from >= 0 && from != to {
		if s.cfg.DelayPerUnit > 0 {
			d += time.Duration(s.topo.Dist(from, to)) * s.cfg.DelayPerUnit
		}
		if s.cfg.Latency != nil {
			d += s.cfg.Latency(from, to)
		}
	}
	if !duplicate {
		return d, 1
	}
	s.dropMu.Lock()
	s.faults.DuplicatedByPolicy++
	s.dropMu.Unlock()
	// The copy takes the same delay; the protocol's sequence checks make
	// duplicated floods idempotent, and a reply cell keeps only the first
	// answer.
	return d, 2
}

// noteAggDrop records that a node lost an aggregate message, so its
// cluster may now hold a stale member: the cluster's repair epoch advances
// and every border repeats the intra-cluster re-flood on its next
// exchange, even for generations it already forwarded.
func (s *System) noteAggDrop(to int, m *message) {
	if m.kind != kindAggregate {
		return
	}
	s.repairEpoch[s.nodes[to].view.ClusterID].Add(1)
}

// count tallies one delivered message and feeds the health detector's
// heard-from signal; a driver calls it as it hands the message over.
func (s *System) count(from int, m *message) {
	s.statMu.Lock()
	switch m.kind {
	case kindLocal:
		s.stats.Local++
	case kindAggregate:
		s.stats.Aggregate++
	case kindRoute:
		s.stats.Route++
	case kindChild:
		s.stats.Child++
	case kindData:
		s.stats.Data++
	}
	s.statMu.Unlock()
	if s.lastHeard != nil && from >= 0 && (m.kind == kindLocal || m.kind == kindAggregate) {
		s.noteHeard(from, m.seq)
	}
}

// TriggerStateRound makes every node broadcast its local state and, at
// border proxies, aggregate and exchange cluster state — one full round of
// the §4 protocol. Call Quiesce to wait for convergence. Crashed nodes
// neither receive the trigger nor broadcast.
func (s *System) TriggerStateRound() {
	seq := s.round.Add(1)
	// Health transitions happen on the protocol tick, before the round's
	// floods go out: re-elected borders take effect for this round, and
	// the evaluation point is deterministic given the message history.
	if s.cfg.Health.Enabled {
		s.evaluateHealth(seq)
	}
	// A full protocol round refreshes every cluster's state: all cached
	// routes are stale against what nodes are about to learn.
	if s.cache != nil {
		s.cache.AdvanceAll()
	}
	s.duty.Store(s.dyn.Table())
	trigger := &message{kind: kindTrigger, trigger: true, seq: seq}
	for i := range s.nodes {
		s.send(-1, i, trigger)
	}
}

// Quiesce blocks until all in-flight messages (and the messages they
// caused) have been processed — every delayed delivery and timer cascade
// drained.
func (s *System) Quiesce() { s.drv.waitIdle() }

// DroppedMessages reports how many messages random fault injection has
// discarded so far (drops to crashed nodes are counted separately; see
// FaultCounters).
func (s *System) DroppedMessages() int {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	return s.faults.Dropped
}

// FaultCounters snapshots the fault-injection and recovery counters.
func (s *System) FaultCounters() FaultStats {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	return s.faults
}

// Traffic snapshots the delivered-message counters.
func (s *System) Traffic() TrafficStats {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.stats
}

// UpdateCapability changes a proxy's installed services at runtime. The
// change propagates on the NEXT protocol round — exactly the periodic
// §4 behaviour; until then other nodes route on stale state, which is safe
// because paths are validated against the live deployment at execution
// time in a real system.
func (s *System) UpdateCapability(node int, set svc.CapabilitySet) error {
	if node < 0 || node >= len(s.nodes) {
		return fmt.Errorf("overlay: node %d out of range [0,%d)", node, len(s.nodes))
	}
	if set == nil {
		return errors.New("overlay: nil capability set")
	}
	s.capsMu.Lock()
	s.caps[node] = set.Clone()
	// A new generation: receivers must install the fresh set instead of
	// taking the unchanged-capability fast path.
	s.capGen[node]++
	s.capsMu.Unlock()
	n := s.nodes[node]
	n.st.Lock()
	n.state.SCTP[n.rank] = set.Clone()
	n.aggGenSeen[n.view.ClusterID] = 0
	n.st.Unlock()
	// Cached routes through this proxy's cluster may rely on the old
	// deployment; invalidate them. Every route already stale goes outright:
	// degraded serving promises stale-but-valid paths, and validity is
	// against the deployment, which just changed.
	if s.cache != nil {
		s.cache.AdvanceRound(s.topo.ClusterOf(node))
		s.cache.AdvanceGeneration()
	}
	return nil
}

// capsOf returns node i's current capability set (immutable once stored).
func (s *System) capsOf(i int) svc.CapabilitySet {
	s.capsMu.RLock()
	defer s.capsMu.RUnlock()
	return s.caps[i]
}

// Capabilities snapshots the current ground-truth deployment.
func (s *System) Capabilities() []svc.CapabilitySet {
	s.capsMu.RLock()
	defer s.capsMu.RUnlock()
	return cloneTable(s.caps)
}

// Converged reports whether every node's state currently matches the
// synchronous model's converged tables — the check failure-recovery tests
// poll between protocol rounds.
func (s *System) Converged() (bool, error) {
	states, release := s.tables()
	defer release()
	return state.VerifyConvergence(s.topo, s.Capabilities(), states) == nil, nil
}

// Route injects a service request at its destination proxy and waits for
// the composed service path, exactly as a client would. Each attempt is
// bounded by Config.RouteTimeout; missed deadlines (a crashed or
// unreachable destination, a dropped request) are retried with exponential
// backoff up to Config.RPCRetries times before failing with ErrRPCTimeout —
// or, with Config.DegradedRoutes, falling back to the last-known-good
// result for the same request, tagged Degraded (stale but never invented).
func (s *System) Route(req svc.Request) (*routing.Result, error) {
	if err := req.Validate(s.topo.N()); err != nil {
		return nil, err
	}
	var key routing.CacheKey
	var canonical string
	var version uint64
	if s.cache != nil {
		canonical = req.SG.Canonical()
		key = routing.NewCacheKeyCanonical(req.Source, req.Dest, canonical)
		if s.cfg.CacheRoutes {
			if v, ok := s.cache.Get(key, canonical); ok {
				// Cached results are shared read-only values.
				return v.(*routing.Result), nil
			}
		}
		version = s.cache.Version()
	}
	backoff := s.cfg.RPCBackoff
	for attempt := 0; ; attempt++ {
		// A fresh reply cell per attempt: a late reply to an abandoned
		// attempt lands harmlessly in a cell nobody reads.
		reply := s.drv.newReply()
		r := req
		s.send(-1, req.Dest, &message{kind: kindRoute, routeReq: &r, reply: reply})
		if out, ok := reply.await(s.cfg.RouteTimeout); ok {
			s.noteRPCOutcome(req.Dest, true)
			if out.err == nil && out.result != nil && s.cache != nil {
				var stamps [8]int
				s.cache.Put(key, canonical, out.result, routing.RouteClusters(stamps[:0], out.result), version)
			}
			if out.err != nil && errors.Is(out.err, ErrRPCTimeout) {
				// The destination answered but could not reach the
				// resolvers it needed — partitioned mid-resolution.
				if res, ok := s.degradedResult(key, canonical); ok {
					return res, nil
				}
			}
			return out.result, out.err
		}
		s.noteRPCOutcome(req.Dest, false)
		if attempt == s.cfg.RPCRetries {
			if res, ok := s.degradedResult(key, canonical); ok {
				return res, nil
			}
			return nil, fmt.Errorf("overlay: route to %d after %d attempts: %w", req.Dest, attempt+1, ErrRPCTimeout)
		}
		s.noteRPCRetry()
		if !s.drv.sleep(backoff) {
			return nil, fmt.Errorf("overlay: route to %d: shut down during retry backoff: %w", req.Dest, ErrRPCTimeout)
		}
		backoff *= 2
	}
}

// RouteCacheStats snapshots the route cache's counters; ok is false when
// caching is disabled.
func (s *System) RouteCacheStats() (stats routing.CacheStats, ok bool) {
	if !s.cfg.CacheRoutes {
		return routing.CacheStats{}, false
	}
	return s.cache.Stats(), true
}

// StateOf snapshots a node's current routing state (deep copy).
func (s *System) StateOf(id int) (state.NodeState, error) {
	if id < 0 || id >= len(s.nodes) {
		return state.NodeState{}, fmt.Errorf("overlay: node %d out of range [0,%d)", id, len(s.nodes))
	}
	n := s.nodes[id]
	n.st.RLock()
	defer n.st.RUnlock()
	return state.NodeState{
		Node: id,
		SCTP: cloneTable(n.state.SCTP),
		SCTC: cloneTable(n.state.SCTC),
		Seq:  slices.Clone(n.state.Seq),
	}, nil
}

// cloneTable deep-copies a table; entries not learned yet stay nil.
func cloneTable(table []svc.CapabilitySet) []svc.CapabilitySet {
	out := make([]svc.CapabilitySet, len(table))
	for i, set := range table {
		if set != nil {
			out[i] = set.Clone()
		}
	}
	return out
}

// States snapshots every node's state, aligned by node index.
func (s *System) States() ([]state.NodeState, error) {
	out := make([]state.NodeState, len(s.nodes))
	for i := range s.nodes {
		st, err := s.StateOf(i)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// tables read-locks every node and returns aliases of their live routing
// tables, aligned by node index, with the function that drops the locks
// again. Holding all the locks gives one consistent cut without copying a
// table — at 100k proxies that is ten million entries — while protocol
// handlers simply wait; the caller must release promptly and must neither
// mutate nor keep the tables.
func (s *System) tables() (states []state.NodeState, release func()) {
	states = make([]state.NodeState, len(s.nodes))
	for i, n := range s.nodes {
		n.st.RLock()
		states[i] = n.state
	}
	return states, func() {
		for _, n := range s.nodes {
			n.st.RUnlock()
		}
	}
}

// handle runs one delivered message to completion at this node: the one
// entry point both drivers call. Protocol kinds mutate state and return;
// kinds that block (msgKind.blocks) wait for replies of their own.
func (n *node) handle(m message) {
	switch m.kind {
	case kindLocal:
		n.applyLocal(m)
	case kindAggregate:
		n.applyAggregate(m)
	case kindTrigger:
		n.broadcast(m.seq)
	case kindRoute:
		n.handleRoute(m)
	case kindChild:
		n.handleChild(m)
	case kindData:
		n.handleData(m)
	}
}

// applyLocal installs a local-state flood. When the flood carries the
// capability generation the node already holds for that origin, the
// message is a pure no-op — the steady-state path that keeps a no-churn
// round free of table writes and aggregate re-unions. A flood whose origin
// is not a member of this cluster has no slot in SCT_P and is rejected.
//
//hfc:hotpath budget=0
func (n *node) applyLocal(m message) {
	// The sender-stamped rank is the slot (peers share the member ordering); a
	// stamp that does not name the origin in this membership is no slot at all.
	r := m.localRank
	if r < 0 || r >= len(n.view.Members) || n.view.Members[r] != m.localFrom {
		r = -1
	}
	n.st.Lock()
	// Fast path: a generation already installed from this origin means the
	// content is byte-identical to the stored entry — no table touch at all.
	// At ~10⁷ floods per large simulated round, this is the difference
	// between seconds and minutes.
	if r >= 0 && m.localGen != 0 && n.genSeen[r] == m.localGen {
		n.st.Unlock()
		return
	}
	ok := n.state.ApplyLocal(r, m.seq, m.localSet)
	if ok {
		n.genSeen[r] = m.localGen
		n.aggGenSeen[n.view.ClusterID] = 0
	}
	n.st.Unlock()
	if !ok {
		n.sys.noteStaleRejected()
	}
}

// applyAggregate installs an aggregate-state entry and, at a receiving
// border, re-floods it intra-cluster (§4 step 2). A message carrying an
// aggregate generation this node has already installed is byte-identical
// to the stored entry, so the table write is skipped. The border re-flood
// of a known generation is also skipped — unless the cluster's repair
// epoch advanced since this border last forwarded it, meaning some member
// may have missed a forward (drop, crash/recovery) and needs the repeat. A
// cluster id outside [0, K) names no slot in SCT_C, and the node's own
// cluster's slot holds the union broadcast takes over its own SCT_P: both are
// rejected.
//
//hfc:hotpath budget=0
func (n *node) applyAggregate(m message) {
	c := m.aggCluster
	if c == n.view.ClusterID {
		n.sys.noteStaleRejected()
		return
	}
	n.st.Lock()
	known := m.aggGen != 0 && c >= 0 && c < len(n.aggGenSeen) && n.aggGenSeen[c] == m.aggGen
	ok := known
	if !known {
		ok = n.state.ApplyAggregate(c, m.seq, m.aggSet)
		if ok {
			n.aggGenSeen[c] = m.aggGen
		}
	}
	fwd := false
	if ok && m.aggForward {
		ep := n.sys.repairEpoch[n.view.ClusterID].Load()
		fwd = !known || n.fwdEpoch[c] != ep
		if fwd {
			// Stamp the epoch only when the forward actually goes out; a
			// bump that lands during or after these sends leaves the
			// stamp behind and forces another repair round.
			n.fwdEpoch[c] = ep
		}
	}
	n.st.Unlock()
	if !ok {
		n.sys.noteStaleRejected()
		return
	}
	if fwd {
		n.forwardAggregate(c, m.aggSet, m.aggGen, m.seq)
	}
}

// broadcast floods this node's local state to its cluster and, if it is
// the live border toward some cluster, aggregates its cluster's (currently
// known) capability and sends it across the external link. When a border
// endpoint crashes, border duty migrates to the pair re-elected among the
// clusters' live members.
func (n *node) broadcast(seq uint64) {
	s := n.sys
	s.capsMu.RLock()
	services := s.caps[n.id] // immutable once stored; shared by every flood copy
	gen := s.capGen[n.id]
	s.capsMu.RUnlock()
	s.drv.flood(n.id, n.view.Members, &message{kind: kindLocal, localFrom: n.id, localRank: n.rank, localSet: services, localGen: gen, seq: seq})
	// Border duty: for each cluster pair this node currently terminates
	// (elected by Build, or re-elected since a crash), send the aggregate
	// of its own cluster. That is SCTC[own], re-unioned over SCTP under a
	// fresh generation only when some member's installed set changed.
	own := n.view.ClusterID
	n.st.Lock()
	if n.aggGenSeen[own] == 0 {
		gen := s.aggGenCtr.Add(1)
		if n.state.ApplyAggregate(own, seq, svc.Union(n.state.SCTP...)) {
			n.aggGenSeen[own] = gen
		}
	}
	agg, aggGen := n.state.SCTC[own], n.aggGenSeen[own]
	n.st.Unlock()
	var exchange *message // built on the first border this node terminates
	// The round's table answers "which pairs do I terminate" with K array
	// reads, and every node of the round reads the same one.
	duty := s.duty.Load()
	k := duty.K
	for other := 0; other < k; other++ {
		if other == own || duty.BorderInA[own*k+other] != int32(n.id) {
			continue
		}
		if exchange == nil {
			exchange = &message{kind: kindAggregate, aggCluster: own, aggSet: agg, aggGen: aggGen, aggForward: true, seq: seq}
		}
		s.send(n.id, int(duty.BorderInA[other*k+own]), exchange)
	}
}

// forwardAggregate re-floods a received aggregate to the rest of this
// node's cluster (§4 step 2, receiving border's duty).
func (n *node) forwardAggregate(cluster int, set svc.CapabilitySet, gen, seq uint64) {
	n.sys.drv.flood(n.id, n.view.Members, &message{kind: kindAggregate, aggCluster: cluster, aggSet: set, aggGen: gen, seq: seq})
}

// handleRoute performs the full §5 procedure at this (destination) node.
//
// The cluster-level search picks clusters from SCT_C aggregates, which are
// blind to individual crashes inside foreign clusters: a cluster whose only
// provider of some service is down still looks viable, and its child
// request then fails with no live provider. When that happens the route is
// recomputed with the failed (cluster, service) combinations banned via the
// ClusterAdmissible hook, steering the CSP to an alternate provider cluster
// — route-level backtracking around crashed providers.
func (n *node) handleRoute(m message) {
	// The cluster-level search reads SCT_C only (children read SCT_P in place,
	// in solveChild); holding the read lock throughout would block protocol
	// updates, so copy it. Stored sets are replaced, never mutated.
	n.st.RLock()
	stCopy := state.NodeState{Node: n.id, SCTC: slices.Clone(n.state.SCTC)}
	n.st.RUnlock()

	type ban struct {
		cluster int
		service svc.Service
	}
	banned := map[ban]bool{}
	var res *routing.Result
	var err error
	for attempt := 0; attempt <= n.view.NumClusters; attempt++ {
		solver := &rpcSolver{n: n}
		router := &routing.HierarchicalRouter{
			View:            n.view,
			State:           &stCopy,
			Intra:           solver,
			ClusterOfSource: n.sys.topo.ClusterOf,
			Mode:            routing.RelaxBacktrack,
		}
		if len(banned) > 0 {
			router.ClusterAdmissible = func(s svc.Service, c int) bool {
				return !banned[ban{cluster: c, service: s}]
			}
		}
		res, err = router.Route(*m.routeReq)
		if err == nil || solver.failedChild == nil ||
			!(errors.Is(err, routing.ErrNoProviders) || errors.Is(err, routing.ErrInfeasible)) {
			break
		}
		// The child doesn't say which of its services lacked a live
		// provider; ban them all in that cluster — at worst the next CSP
		// is slightly longer.
		fc := solver.failedChild
		grew := false
		for _, s := range fc.Services {
			if !banned[ban{cluster: fc.Cluster, service: s}] {
				banned[ban{cluster: fc.Cluster, service: s}] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	m.reply.deliver(answer{result: res, err: err})
}

// handleChild resolves a child request against this node's own SCT_P.
func (n *node) handleChild(m message) {
	path, err := n.solveChild(*m.childReq)
	m.reply.deliver(answer{path: path, err: err})
}

// solveChild is the §5.2 intra-cluster computation over this node's
// privately accumulated SCT_P, read in place under the node's lock. Providers
// the failure detector reports dead are skipped: a path through a crashed
// proxy would only fail at execution time.
func (n *node) solveChild(child routing.ChildRequest) (*routing.Path, error) {
	n.st.RLock()
	defer n.st.RUnlock()
	return routing.IntraSolve{
		Members: n.view.Members,
		SCTP:    n.state.SCTP,
		Usable:  n.view.Alive,
		Oracle:  n,
	}.Solve(child)
}

// Dist implements routing.Oracle over the node's view for its own cluster's
// child solves.
func (n *node) Dist(u, v int) float64 {
	d, err := n.view.Dist(u, v)
	if err != nil {
		// Intra-cluster endpoints are always in the view; an error here is a
		// harness bug.
		panic(err)
	}
	return d
}

// rpcSolver sends child requests to their resolver proxies and waits for
// the answers — the conquer phase as actual message exchange. A child whose
// resolver is this node is solved inline (a node does not RPC itself).
//
// Each RPC attempt is bounded by Config.RPCTimeout and retried (with
// exponential backoff) up to Config.RPCRetries times; when a resolver keeps
// missing its deadline — crashed, or its replies keep being dropped — the
// solver re-issues the child request to the next candidate resolver of the
// target cluster (routing.ResolverCandidates), since any member holding the
// cluster's SCT_P can answer.
type rpcSolver struct {
	n *node
	// failedChild records the child whose resolution failed semantically
	// (no provider / infeasible), so handleRoute can ban its cluster-service
	// combinations and recompute the CSP around the failure.
	failedChild *routing.ChildRequest
}

var _ routing.IntraSolver = (*rpcSolver)(nil)

// SolveChild implements routing.IntraSolver.
func (s *rpcSolver) SolveChild(child routing.ChildRequest) (*routing.Path, error) {
	sys := s.n.sys
	// The services are on loan from the router for this call only, and what
	// happens to the child here outlives it: a resolver may handle the message
	// after its deadline has passed, and handleRoute reads failedChild.
	child.Services = slices.Clone(child.Services)
	// The failover list opens with the designated resolver, and almost every
	// child is answered there: the rest of the list (K−1 border lookups for
	// a foreign cluster) is built only once that first candidate has
	// timed out or is already suspected.
	candidates := []int{child.Resolver}
	tried := 0
	for ci := 0; ci < len(candidates); ci++ {
		resolver := candidates[ci]
		// The failure detector prunes known-dead candidates; the designated
		// resolver is still attempted when every candidate looks dead, so
		// detector false positives degrade to a timeout, not a wrong answer.
		if s.n.view.Alive == nil || s.n.view.Alive(resolver) {
			tried++
			c := child
			c.Resolver = resolver
			path, err := s.solveAt(c)
			if err == nil {
				if ci > 0 {
					sys.noteResolverFailover()
				}
				return path, nil
			}
			if !errors.Is(err, ErrRPCTimeout) {
				// A semantic failure (no provider, unsatisfiable graph) is the
				// same at every resolver — converged SCT_Ps agree — so failing
				// over would only repeat it.
				c := child
				s.failedChild = &c
				return nil, err
			}
		}
		if ci == 0 {
			candidates = routing.ResolverCandidates(s.n.view, child)
		}
	}
	if tried == 0 {
		c := child
		return s.solveAt(c)
	}
	return nil, fmt.Errorf("overlay: child request for cluster %d: all %d resolver candidates failed: %w",
		child.Cluster, tried, ErrRPCTimeout)
}

// solveAt runs the deadline+retry loop against one specific resolver.
func (s *rpcSolver) solveAt(child routing.ChildRequest) (*routing.Path, error) {
	if child.Resolver == s.n.id {
		return s.n.solveChild(child)
	}
	sys := s.n.sys
	backoff := sys.cfg.RPCBackoff
	for attempt := 0; ; attempt++ {
		reply := sys.drv.newReply()
		c := child
		sys.send(s.n.id, child.Resolver, &message{kind: kindChild, childReq: &c, reply: reply})
		if out, ok := reply.await(sys.cfg.RPCTimeout); ok {
			sys.noteRPCOutcome(child.Resolver, true)
			if out.err != nil {
				return nil, fmt.Errorf("overlay: child request at %d: %w", child.Resolver, out.err)
			}
			return out.path, nil
		}
		sys.noteRPCOutcome(child.Resolver, false)
		if attempt == sys.cfg.RPCRetries {
			return nil, fmt.Errorf("overlay: child request at %d: %d attempts: %w", child.Resolver, attempt+1, ErrRPCTimeout)
		}
		sys.noteRPCRetry()
		if !sys.drv.sleep(backoff) {
			return nil, fmt.Errorf("overlay: child request at %d: shut down during retry backoff: %w", child.Resolver, ErrRPCTimeout)
		}
		backoff *= 2
	}
}
