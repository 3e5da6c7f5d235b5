package overlay

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfc/internal/svc"
)

// fastFaultConfig keeps timeout-path tests quick.
func fastFaultConfig() Config {
	return Config{
		RouteTimeout: 50 * time.Millisecond,
		RPCTimeout:   15 * time.Millisecond,
		RPCRetries:   1,
		RPCBackoff:   time.Millisecond,
	}
}

func convergeRounds(t *testing.T, sys *System, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
}

// nonBorderNode returns a node with no border duty.
func nonBorderNode(t *testing.T, sys *System) int {
	t.Helper()
	for i := 0; i < sys.topo.N(); i++ {
		if !sys.topo.IsBorder(i) {
			return i
		}
	}
	t.Fatal("every node has border duty")
	return -1
}

func TestCrashRecoverValidation(t *testing.T) {
	topo, caps := buildFixture(t, 60)
	sys := startSystem(t, topo, caps, Config{})
	if err := sys.Crash(-1); err == nil {
		t.Error("negative id accepted by Crash")
	}
	if err := sys.Recover(topo.N()); err == nil {
		t.Error("out-of-range id accepted by Recover")
	}
	if err := sys.Recover(0); err != nil {
		t.Errorf("recovering a live node: %v", err)
	}
	if sys.IsCrashed(-5) || sys.IsCrashed(topo.N()+5) {
		t.Error("out-of-range id reported crashed")
	}
	if err := sys.Crash(3); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := sys.Crash(3); err != nil {
		t.Errorf("double crash: %v", err)
	}
	if got := sys.CrashedNodes(); len(got) != 1 || got[0] != 3 {
		t.Errorf("CrashedNodes = %v, want [3]", got)
	}
}

func TestRouteToCrashedDestTimesOut(t *testing.T) {
	topo, caps := buildFixture(t, 61)
	cfg := fastFaultConfig()
	sys, sim := startSimSystem(t, topo, caps, cfg)

	req, err := newRequest(t, caps, 61)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	var rerr error
	var elapsed time.Duration
	sim.Run(func() {
		convergeRounds(t, sys, 2)
		if err := sys.Crash(req.Dest); err != nil {
			t.Errorf("Crash: %v", err)
			return
		}
		start := sim.Now()
		_, rerr = sys.Route(req)
		elapsed = sim.Now() - start
	})
	if !errors.Is(rerr, ErrRPCTimeout) {
		t.Fatalf("Route to crashed dest: err = %v, want ErrRPCTimeout", rerr)
	}
	// Virtual time makes the deadline math exact: RPCRetries=1 → two
	// attempts of RouteTimeout each, separated by one backoff.
	if want := 2*cfg.RouteTimeout + cfg.RPCBackoff; elapsed != want {
		t.Errorf("timed-out route took %v of virtual time, want exactly %v", elapsed, want)
	}
	fc := sys.FaultCounters()
	if fc.DroppedToCrashed < 2 {
		t.Errorf("DroppedToCrashed = %d, want >= 2 (both attempts)", fc.DroppedToCrashed)
	}
	if fc.RPCRetries < 1 {
		t.Errorf("RPCRetries = %d, want >= 1", fc.RPCRetries)
	}
}

func TestChildRPCFailsOverToAlternateResolver(t *testing.T) {
	topo, caps := buildFixture(t, 62)
	if topo.NumClusters() < 2 {
		t.Fatal("fixture needs >= 2 clusters")
	}
	// Give the destination a service nobody else provides, so the CSP maps
	// it to the destination's cluster and the source cluster contributes a
	// pure-relay child whose resolver is its exit border. The source cluster
	// needs a second border proxy for the destination to fail over to.
	ca := -1
	for c := 0; c < topo.NumClusters() && ca == -1; c++ {
		if len(topo.BorderNodesOf(c)) >= 2 {
			ca = c
		}
	}
	if ca == -1 {
		t.Fatal("fixture has no cluster with two border proxies")
	}
	cb := (ca + 1) % topo.NumClusters()
	src, dest := -1, -1
	for i := 0; i < topo.N(); i++ {
		if src == -1 && topo.ClusterOf(i) == ca {
			src = i
		}
		if dest == -1 && topo.ClusterOf(i) == cb {
			dest = i
		}
	}
	unique := svc.Service("unique-child-failover")
	caps[dest] = caps[dest].Clone()
	caps[dest].Add(unique)

	sys := startSystem(t, topo, caps, fastFaultConfig())
	convergeRounds(t, sys, 2)

	inCa, _, err := topo.Border(ca, cb)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	if err := sys.Crash(inCa); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// Simulate failure-detector lag at the destination: it still believes
	// the crashed border is alive and has not heard the re-elected border
	// either — a view detached from the live elections — so the child RPC
	// must discover the failure the hard way: deadline misses, then
	// alternate resolvers.
	lagging, err := topo.SharedView(dest)
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	lagging.Alive = func(int) bool { return true }
	sys.nodes[dest].view = lagging

	sg, err := svc.Linear(unique)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	res, rerr := sys.Route(svc.Request{Source: src, Dest: dest, SG: sg})
	if rerr != nil {
		t.Fatalf("Route with crashed designated resolver: %v", rerr)
	}
	if res.Path == nil || len(res.Path.Hops) == 0 {
		t.Fatal("empty path")
	}
	fc := sys.FaultCounters()
	if fc.RPCRetries < 1 {
		t.Errorf("RPCRetries = %d, want >= 1 (crashed resolver must time out)", fc.RPCRetries)
	}
	if fc.ResolverFailovers < 1 {
		t.Errorf("ResolverFailovers = %d, want >= 1 (alternate resolver must answer)", fc.ResolverFailovers)
	}
}

func TestBorderCrashReconvergesThroughReelectedBorder(t *testing.T) {
	topo, caps := buildFixture(t, 63)
	// Any pair whose near cluster keeps a live member once its border is gone.
	ca, cb := -1, -1
	for a := 0; a < topo.NumClusters() && ca == -1; a++ {
		if len(topo.Members(a)) >= 2 {
			ca, cb = a, (a+1)%topo.NumClusters()
		}
	}
	if ca == -1 || ca == cb {
		t.Fatal("fixture has no pair of clusters whose near side has two members")
	}
	inCa, _, err := topo.Border(ca, cb)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}

	sys := startSystem(t, topo, caps, Config{})
	convergeRounds(t, sys, 2)
	if err := sys.Crash(inCa); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	// Change ground truth in the border's cluster AFTER the crash: the only
	// way the new service can reach other clusters' SCT_C (the live-aggregate
	// floor of ConvergedLive) is an aggregate exchange over a re-elected pair.
	fresh := svc.Service("post-crash-service")
	var carrier int = -1
	for i := 0; i < topo.N(); i++ {
		if topo.ClusterOf(i) == ca && i != inCa && !sys.IsCrashed(i) {
			carrier = i
			break
		}
	}
	set := caps[carrier].Clone()
	set.Add(fresh)
	if err := sys.UpdateCapability(carrier, set); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}

	reconverged := false
	for r := 0; r < 5; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		ok, err := sys.ConvergedLive()
		if err != nil {
			t.Fatalf("ConvergedLive: %v", err)
		}
		if ok {
			reconverged = true
			t.Logf("re-converged %d round(s) after border crash", r+1)
			break
		}
	}
	if !reconverged {
		t.Fatal("no re-convergence through the re-elected border within 5 rounds")
	}
	// The new service crossed clusters, so it travelled over a re-elected pair.
	for i := 0; i < topo.N(); i++ {
		if sys.IsCrashed(i) || topo.ClusterOf(i) == ca {
			continue
		}
		st, err := sys.StateOf(i)
		if err != nil {
			t.Fatalf("StateOf: %v", err)
		}
		if !st.SCTC[ca].Has(fresh) {
			t.Errorf("node %d SCT_C[%d] missing %q: the re-elected pair exchanged nothing", i, ca, fresh)
		}
	}
	// Live views must now resolve the pair's border to live proxies.
	for _, n := range sys.nodes {
		if sys.IsCrashed(n.id) {
			continue
		}
		u, v, err := n.view.Border(ca, cb)
		if err != nil {
			continue // views not party to the pair may not know it
		}
		if u == inCa || v == inCa {
			t.Errorf("node %d view still selects crashed border %d for (%d,%d)", n.id, inCa, ca, cb)
		}
	}
	if fc := sys.FaultCounters(); fc.DroppedToCrashed == 0 {
		t.Error("no messages recorded as dropped to the crashed border")
	}
}

func TestRecoveredNodeRejoins(t *testing.T) {
	topo, caps := buildFixture(t, 64)
	sys := startSystem(t, topo, caps, Config{})
	convergeRounds(t, sys, 2)

	victim := nonBorderNode(t, sys)
	if err := sys.Crash(victim); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	convergeRounds(t, sys, 1)
	if ok, err := sys.ConvergedLive(); err != nil || !ok {
		t.Fatalf("ConvergedLive with %d crashed = %v, %v", victim, ok, err)
	}

	// Ground truth moves while the victim is down; after recovery it must
	// re-learn everything, including the change it never saw.
	other := (victim + 1) % topo.N()
	if sys.IsCrashed(other) {
		other = (victim + 2) % topo.N()
	}
	set := caps[other].Clone()
	set.Add("while-you-were-out")
	if err := sys.UpdateCapability(other, set); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}

	if err := sys.Recover(victim); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(sys.CrashedNodes()) != 0 {
		t.Fatalf("CrashedNodes = %v after recovery", sys.CrashedNodes())
	}
	st, err := sys.StateOf(victim)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	if got := st.ServiceStateSize(); got != 2 {
		t.Errorf("recovered node rejoined with %d learned entries, want its own SCT_P and SCT_C entries only", got)
	}

	convergeRounds(t, sys, 3)
	ok, err := sys.Converged()
	if err != nil {
		t.Fatalf("Converged: %v", err)
	}
	if !ok {
		t.Fatal("no strict convergence after recovery")
	}
	st, err = sys.StateOf(victim)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	if topo.ClusterOf(other) != topo.ClusterOf(victim) {
		t.Fatalf("node %d is not a cluster peer of the victim %d", other, victim)
	}
	otherRank := sys.nodes[other].rank
	if !st.SCTP[otherRank].Has("while-you-were-out") {
		t.Error("recovered node missed the capability change made while it was down")
	}
}

func TestStaleRefloodRejected(t *testing.T) {
	topo, caps := buildFixture(t, 65)
	sys := startSystem(t, topo, caps, Config{})
	convergeRounds(t, sys, 2) // round counter now 2

	victim := 0
	var origin int = -1
	for i := 1; i < topo.N(); i++ {
		if topo.ClusterOf(i) == topo.ClusterOf(victim) {
			origin = i
			break
		}
	}
	if origin == -1 {
		t.Fatal("victim has no cluster peer")
	}
	before, err := sys.StateOf(victim)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	originRank := sys.nodes[origin].rank
	if !before.SCTP[originRank].Equal(caps[origin]) {
		t.Fatalf("victim not converged before replay")
	}

	// Replay a round-1 flood carrying bogus state — a delayed duplicate
	// from before convergence. The sequence check must discard it.
	sys.send(-1, victim, &message{
		kind:      kindLocal,
		localFrom: origin,
		localRank: originRank,
		localSet:  svc.NewCapabilitySet("bogus-replayed"),
		seq:       1,
	})
	sys.Quiesce()

	after, err := sys.StateOf(victim)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	if after.SCTP[originRank].Has("bogus-replayed") {
		t.Error("stale re-flood overwrote newer state")
	}
	if !after.SCTP[originRank].Equal(caps[origin]) {
		t.Errorf("SCT_P entry for %d = %v after replay, want %v", origin, after.SCTP[originRank], caps[origin])
	}
	if fc := sys.FaultCounters(); fc.StaleRejected < 1 {
		t.Errorf("StaleRejected = %d, want >= 1", fc.StaleRejected)
	}
}

func TestSendAfterStopIsCountedNoOp(t *testing.T) {
	topo, caps := buildFixture(t, 66)
	sys, err := New(topo, caps, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	sys.TriggerStateRound() // must not panic on closed inboxes
	fc := sys.FaultCounters()
	if fc.DroppedAfterStop != topo.N() {
		t.Errorf("DroppedAfterStop = %d, want %d (one per node)", fc.DroppedAfterStop, topo.N())
	}
}

// TestStopSendRaceHammer races concurrent senders against Stop; before the
// sendMu admission protocol, this was a send-on-closed-channel panic under
// load. Run with -race.
func TestStopSendRaceHammer(t *testing.T) {
	topo, caps := buildFixture(t, 67)
	for i := 0; i < 25; i++ {
		sys, err := New(topo, caps, Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sys.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		var stopped atomic.Bool
		var rounds atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The cap bounds how much flood traffic Stop must drain;
				// the race window is in the first few rounds anyway.
				for !stopped.Load() && rounds.Load() < 32 {
					sys.TriggerStateRound()
					rounds.Add(1)
				}
			}()
		}
		// Vary how much send traffic Stop races against — a work-based
		// stagger instead of a wall-clock sleep, so the hammer spends its
		// whole budget hammering.
		for target := int64(i % 3); rounds.Load() < target; {
			runtime.Gosched()
		}
		if err := sys.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		stopped.Store(true)
		wg.Wait()
	}
}
