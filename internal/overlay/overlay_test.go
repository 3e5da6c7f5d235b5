package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// buildFixture creates a 3-cluster overlay with deterministic geometry and
// random capabilities.
func buildFixture(t *testing.T, seed int64) (*hfc.Topology, []svc.CapabilitySet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pts []coords.Point
	for c := 0; c < 3; c++ {
		for i := 0; i < 8; i++ {
			pts = append(pts, coords.Point{float64(c)*300 + rng.Float64()*30, rng.Float64() * 30})
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	res, err := cluster.Cluster(len(pts), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, len(pts), cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	return topo, caps
}

func startSystem(t *testing.T, topo *hfc.Topology, caps []svc.CapabilitySet, cfg Config) *System {
	t.Helper()
	sys, err := New(topo, caps, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		// Stop errors after an explicit test Stop are fine.
		_ = sys.Stop()
	})
	return sys
}

// startSimSystem builds a system on a fresh virtual clock. Every driving
// call (TriggerStateRound, Quiesce, Route, Execute) must then run inside
// sim.Run, which also supplies deadlock detection for free: a wedged
// protocol panics with a blocked-task report instead of hanging the test.
func startSimSystem(t *testing.T, topo *hfc.Topology, caps []svc.CapabilitySet, cfg Config) (*System, *vtime.Sim) {
	t.Helper()
	sim := vtime.NewSim()
	cfg.Clock = sim
	sys, err := New(topo, caps, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = sys.Stop() })
	return sys, sim
}

func TestNewValidation(t *testing.T) {
	topo, caps := buildFixture(t, 1)
	if _, err := New(nil, caps, Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(topo, caps[:3], Config{}); err == nil {
		t.Error("short capability list accepted")
	}
}

func TestStartStopLifecycle(t *testing.T) {
	topo, caps := buildFixture(t, 2)
	sys, err := New(topo, caps, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Stop(); err == nil {
		t.Error("Stop before Start succeeded")
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.Start(); err == nil {
		t.Error("double Start succeeded")
	}
	if err := sys.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := sys.Stop(); err == nil {
		t.Error("double Stop succeeded")
	}
}

func TestProtocolConvergesToSynchronousModel(t *testing.T) {
	topo, caps := buildFixture(t, 3)
	sys := startSystem(t, topo, caps, Config{})

	// Two protocol rounds: the first converges SCT_P everywhere; the
	// second lets border proxies aggregate over complete local knowledge.
	sys.TriggerStateRound()
	sys.Quiesce()
	sys.TriggerStateRound()
	sys.Quiesce()

	got, err := sys.States()
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	if err := state.VerifyConvergence(topo, caps, got); err != nil {
		t.Fatalf("distributed protocol did not converge to the synchronous model: %v", err)
	}
	// And it must equal Distribute's output exactly.
	want, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	for i := range want {
		for k, set := range want[i].SCTP {
			if !got[i].SCTP[k].Equal(set) {
				t.Fatalf("node %d SCT_P[%d] mismatch", i, k)
			}
		}
		for k, set := range want[i].SCTC {
			if !got[i].SCTC[k].Equal(set) {
				t.Fatalf("node %d SCT_C[%d] mismatch", i, k)
			}
		}
	}
}

func TestDistributedRoutingMatchesSimulation(t *testing.T) {
	topo, caps := buildFixture(t, 4)
	sys := startSystem(t, topo, caps, Config{})
	sys.TriggerStateRound()
	sys.Quiesce()
	sys.TriggerStateRound()
	sys.Quiesce()

	states, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 15; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		distRes, err := sys.Route(req)
		if err != nil {
			t.Fatalf("distributed Route: %v", err)
		}
		if err := distRes.Path.Validate(req, caps); err != nil {
			t.Fatalf("distributed path invalid: %v", err)
		}
		r, err := routing.NewHierarchicalRouter(topo, states, req.Dest, routing.RelaxBacktrack)
		if err != nil {
			t.Fatalf("NewHierarchicalRouter: %v", err)
		}
		simRes, err := r.Route(req)
		if err != nil {
			t.Fatalf("simulated route: %v", err)
		}
		simPath := simRes.Path
		// Same algorithm, same state → identical hop sequences.
		if len(distRes.Path.Hops) != len(simPath.Hops) {
			t.Fatalf("request %d: distributed %v != simulated %v", i, distRes.Path, simPath)
		}
		for h := range simPath.Hops {
			if distRes.Path.Hops[h] != simPath.Hops[h] {
				t.Fatalf("request %d hop %d: distributed %v != simulated %v", i, h, distRes.Path, simPath)
			}
		}
	}
}

func TestConcurrentRoutesDoNotDeadlock(t *testing.T) {
	topo, caps := buildFixture(t, 5)
	sys, sim := startSimSystem(t, topo, caps, Config{})

	rng := rand.New(rand.NewSource(10))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	reqs := make([]svc.Request, 40)
	for i := range reqs {
		r, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		reqs[i] = r
	}
	// Under virtual time a deadlock is not a 30-second hang: the scheduler
	// panics the moment no task can make progress, naming the blocked tasks.
	var errs []error
	sim.Run(func() {
		sys.TriggerStateRound()
		sys.Quiesce()
		sys.TriggerStateRound()
		sys.Quiesce()
		for _, req := range reqs {
			req := req
			sim.Go("route", func() {
				res, err := sys.Route(req)
				if err != nil {
					errs = append(errs, err)
					return
				}
				if err := res.Path.Validate(req, caps); err != nil {
					errs = append(errs, err)
				}
			})
		}
		sim.WaitIdle()
	})
	for _, err := range errs {
		t.Errorf("concurrent route: %v", err)
	}
}

// parityOutcome is what TestSimModeMatchesRealMode compares across drivers.
type parityOutcome struct {
	crashedMid []int
	bordersMid hfc.DynamicSnapshot
	states     []state.NodeState
	borders    hfc.DynamicSnapshot
	crashed    []int
	paths      []*routing.Path
	traces     []*ExecutionTrace
}

// parityScript drives one system through the op sequence both drivers must
// agree on: convergence, a capability update, a border crash and its
// recovery, then routes and executions over the re-converged tables. It may
// run on a Sim task, so it reports through t.Errorf only.
func parityScript(t *testing.T, sys *System, update, victim int, set svc.CapabilitySet, reqs []svc.Request) parityOutcome {
	var out parityOutcome
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			sys.TriggerStateRound()
			sys.Quiesce()
		}
	}
	rounds(2)
	if err := sys.UpdateCapability(update, set); err != nil {
		t.Errorf("UpdateCapability: %v", err)
	}
	rounds(1)
	if err := sys.Crash(victim); err != nil {
		t.Errorf("Crash: %v", err)
	}
	rounds(1)
	out.crashedMid, out.bordersMid = sys.CrashedNodes(), sys.BorderSnapshot()
	if err := sys.Recover(victim); err != nil {
		t.Errorf("Recover: %v", err)
	}
	rounds(2)
	for _, req := range reqs {
		res, err := sys.Route(req)
		if err != nil {
			t.Errorf("Route: %v", err)
			continue
		}
		tr, err := sys.Execute(res.Path, "x")
		if err != nil {
			t.Errorf("Execute: %v", err)
		}
		out.paths, out.traces = append(out.paths, res.Path), append(out.traces, tr)
	}
	var err error
	if out.states, err = sys.States(); err != nil {
		t.Errorf("States: %v", err)
	}
	out.borders, out.crashed = sys.BorderSnapshot(), sys.CrashedNodes()
	return out
}

// TestSimModeMatchesRealMode runs one op sequence through both drivers —
// once on the wall clock with mailboxes, once as events of a virtual clock —
// and requires identical per-node protocol state, border elections, crash
// registry and bit-identical route paths: the protocol is the same code,
// only delivery differs. Tables are compared where the protocol has
// re-converged; within a round the mailbox driver's interleaving is free.
func TestSimModeMatchesRealMode(t *testing.T) {
	topo, caps := buildFixture(t, 5)
	victim, _, err := topo.Border(0, 1)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	update := (victim + 1) % topo.N()
	set := caps[update].Clone()
	set.Add("parity-service")
	final := append([]svc.CapabilitySet(nil), caps...)
	final[update] = set
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(55)), final, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	reqs := make([]svc.Request, 6)
	for i := range reqs {
		if reqs[i], err = gen.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}

	// New keeps the deployment slice it is given, so each system gets its own.
	real := startSystem(t, topo, append([]svc.CapabilitySet(nil), caps...), Config{})
	want := parityScript(t, real, update, victim, set, reqs)

	simSys, sim := startSimSystem(t, topo, append([]svc.CapabilitySet(nil), caps...), Config{})
	var got parityOutcome
	sim.Run(func() { got = parityScript(t, simSys, update, victim, set, reqs) })

	if len(want.crashedMid) != 1 || want.crashedMid[0] != victim {
		t.Errorf("crashed set mid-sequence %v, want [%d]", want.crashedMid, victim)
	}
	check := func(what string, got, want interface{}) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverge between drivers:\n  sim  %v\n  real %v", what, got, want)
		}
	}
	check("crashed nodes after the crash round", got.crashedMid, want.crashedMid)
	check("border elections after the crash round", got.bordersMid, want.bordersMid)
	check("final crashed nodes", got.crashed, want.crashed)
	check("final border elections", got.borders, want.borders)
	check("execution traces", got.traces, want.traces)
	if len(got.paths) != len(reqs) || len(want.paths) != len(reqs) {
		t.Fatalf("routed %d (sim) and %d (real) of %d requests", len(got.paths), len(want.paths), len(reqs))
	}
	for i := range reqs {
		check(fmt.Sprintf("route %d", i), got.paths[i], want.paths[i])
	}
	// Seq records in which round an entry last changed hands, which the
	// mailbox driver's interleaving decides; the tables are the protocol state.
	for i := range want.states {
		check(fmt.Sprintf("node %d SCT_P", i), got.states[i].SCTP, want.states[i].SCTP)
		check(fmt.Sprintf("node %d SCT_C", i), got.states[i].SCTC, want.states[i].SCTC)
	}
}

func TestSimulatedDelayStillConverges(t *testing.T) {
	topo, caps := buildFixture(t, 6)
	sys := startSystem(t, topo, caps, Config{DelayPerUnit: 10 * time.Microsecond})
	sys.TriggerStateRound()
	sys.Quiesce()
	sys.TriggerStateRound()
	sys.Quiesce()
	got, err := sys.States()
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	if err := state.VerifyConvergence(topo, caps, got); err != nil {
		t.Fatalf("delayed protocol did not converge: %v", err)
	}
}

func TestRouteBeforeConvergenceFailsGracefully(t *testing.T) {
	topo, caps := buildFixture(t, 7)
	sys := startSystem(t, topo, caps, Config{})
	// No protocol rounds: nodes only know themselves. Routing must either
	// fail cleanly (no providers visible) or return a valid path — never
	// hang or return garbage.
	rng := rand.New(rand.NewSource(11))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 3)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 10; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		res, err := sys.Route(req)
		if err != nil {
			continue // expected: incomplete state
		}
		if err := res.Path.Validate(req, caps); err != nil {
			t.Errorf("pre-convergence path invalid: %v", err)
		}
	}
}

func TestStateOfValidation(t *testing.T) {
	topo, caps := buildFixture(t, 8)
	sys := startSystem(t, topo, caps, Config{})
	if _, err := sys.StateOf(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := sys.StateOf(topo.N()); err == nil {
		t.Error("out-of-range id accepted")
	}
	st, err := sys.StateOf(0)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	// Snapshot isolation: mutating the copy must not affect the node.
	st.SCTP[0].Add("injected")
	st2, err := sys.StateOf(0)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	if st2.SCTP[0].Has("injected") {
		t.Error("StateOf returned an aliased snapshot")
	}
}

func TestRouteValidatesRequest(t *testing.T) {
	topo, caps := buildFixture(t, 12)
	sys := startSystem(t, topo, caps, Config{})
	sg, err := svc.Linear("s0")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := sys.Route(svc.Request{Source: -1, Dest: 0, SG: sg}); err == nil {
		t.Error("invalid request accepted")
	}
}

// newRequest draws one satisfiable request from a per-seed generator.
func newRequest(t *testing.T, caps []svc.CapabilitySet, seed int64) (svc.Request, error) {
	t.Helper()
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(seed+1000)), caps, 2, 4)
	if err != nil {
		return svc.Request{}, err
	}
	return gen.Next()
}
