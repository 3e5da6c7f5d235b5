package overlay

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// healthConfig switches the accrual detector on with its default cap.
func healthConfig() HealthConfig {
	return HealthConfig{Enabled: true}
}

func TestLinkPolicyDuplicateAndDelayAreHarmless(t *testing.T) {
	topo, caps := buildFixture(t, 80)
	cfg := Config{LinkPolicy: func(from, to int, kind MsgKind) LinkVerdict {
		// Double every flood and hold it back a hair: the sequence checks
		// must make the duplicates invisible to convergence.
		if kind == MsgLocal || kind == MsgAggregate {
			return LinkVerdict{Duplicate: true, Delay: time.Millisecond}
		}
		return LinkVerdict{}
	}}
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	got, err := sys.States()
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	if err := state.VerifyConvergence(topo, caps, got); err != nil {
		t.Fatalf("convergence under duplication: %v", err)
	}
	fc := sys.FaultCounters()
	if fc.DuplicatedByPolicy == 0 {
		t.Error("DuplicatedByPolicy = 0, want > 0")
	}
	if fc.DroppedByPolicy != 0 {
		t.Errorf("DroppedByPolicy = %d, want 0", fc.DroppedByPolicy)
	}
}

func TestLinkPolicyDropIsCounted(t *testing.T) {
	topo, caps := buildFixture(t, 81)
	var dropped atomic.Int64
	cfg := Config{LinkPolicy: func(from, to int, kind MsgKind) LinkVerdict {
		if kind == MsgLocal {
			dropped.Add(1)
			return LinkVerdict{Drop: true}
		}
		return LinkVerdict{}
	}}
	sys := startSystem(t, topo, caps, cfg)
	sys.TriggerStateRound()
	sys.Quiesce()
	fc := sys.FaultCounters()
	if int64(fc.DroppedByPolicy) != dropped.Load() {
		t.Errorf("DroppedByPolicy = %d, want %d", fc.DroppedByPolicy, dropped.Load())
	}
	if fc.DroppedByPolicy == 0 {
		t.Error("no local floods offered to the policy")
	}
	if tr := sys.Traffic(); tr.Local != 0 {
		t.Errorf("%d local floods delivered past a drop-all policy", tr.Local)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgLocal: "local", MsgAggregate: "aggregate", MsgTrigger: "trigger",
		MsgRoute: "route", MsgChild: "child", MsgData: "data", MsgKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestGrayNodeQuarantineAndRelease drives the full accrual cycle: a border
// node goes gray (alive, but every outbound flood is lost), accumulates
// suspicion from round gaps, is quarantined out of border election, then
// heals, decays below the release threshold, and is restored — with the
// border tables ending DeepEqual to a fresh rebuild.
func TestGrayNodeQuarantineAndRelease(t *testing.T) {
	topo, caps := buildFixture(t, 82)
	gray, _, err := topo.Border(0, 1)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	var silenced atomic.Bool
	cfg := Config{
		Health: healthConfig(),
		LinkPolicy: func(from, to int, kind MsgKind) LinkVerdict {
			if silenced.Load() && from == gray {
				return LinkVerdict{Drop: true}
			}
			return LinkVerdict{}
		},
	}
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	if sys.IsQuarantined(gray) {
		t.Fatal("healthy node quarantined")
	}

	silenced.Store(true)
	quarantinedAt := -1
	for r := 0; r < 8; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		if sys.IsQuarantined(gray) {
			quarantinedAt = r + 1
			break
		}
	}
	if quarantinedAt < 0 {
		t.Fatalf("gray node %d not quarantined within 8 rounds (suspicion %v)",
			gray, sys.SuspicionLevel(gray))
	}
	t.Logf("node %d quarantined after %d silent round(s), suspicion %v",
		gray, quarantinedAt, sys.SuspicionLevel(gray))
	if got := sys.QuarantinedNodes(); len(got) != 1 || got[0] != gray {
		t.Errorf("QuarantinedNodes = %v, want [%d]", got, gray)
	}
	if sys.SuspicionLevel(gray) < healthQuarantineAt {
		t.Errorf("suspicion %v below quarantine threshold %v",
			sys.SuspicionLevel(gray), healthQuarantineAt)
	}
	if sys.nodes[0].view.Alive(gray) {
		t.Error("failure detector still reports quarantined node alive")
	}
	if a, _, err := sys.nodes[0].view.Border(0, 1); err == nil && a == gray {
		t.Error("quarantined node still elected as border")
	}
	hc := sys.HealthCounters()
	if hc.Quarantines != 1 || hc.RoundGaps == 0 {
		t.Errorf("HealthCounters = %+v, want Quarantines=1, RoundGaps>0", hc)
	}

	// Heal: the node's floods flow again; suspicion decays, the node is
	// released, and border duty returns to the static election.
	silenced.Store(false)
	released := -1
	for r := 0; r < 15; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		if !sys.IsQuarantined(gray) {
			released = r + 1
			break
		}
	}
	if released < 0 {
		t.Fatalf("node %d never released (suspicion %v)", gray, sys.SuspicionLevel(gray))
	}
	t.Logf("released after %d healthy round(s)", released)
	if hc := sys.HealthCounters(); hc.Unquarantines != 1 {
		t.Errorf("Unquarantines = %d, want 1", hc.Unquarantines)
	}
	fresh := hfc.NewDynamic(topo)
	if err := fresh.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := sys.BorderSnapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-release border state diverges from fresh rebuild:\n got %+v\nwant %+v", got, want)
	}
}

func TestDeadlineMissesRaiseSuspicion(t *testing.T) {
	topo, caps := buildFixture(t, 83)
	cfg := fastFaultConfig()
	cfg.Health = healthConfig()
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	req, err := newRequest(t, caps, 83)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	if err := sys.Crash(req.Dest); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, rerr := sys.Route(req); !errors.Is(rerr, ErrRPCTimeout) {
		t.Fatalf("Route to crashed dest: err = %v, want ErrRPCTimeout", rerr)
	}
	hc := sys.HealthCounters()
	if hc.DeadlineMisses < 2 {
		t.Errorf("DeadlineMisses = %d, want >= 2 (every attempt missed)", hc.DeadlineMisses)
	}
	if sys.SuspicionLevel(req.Dest) == 0 {
		t.Error("missed deadlines left suspicion at 0")
	}
	// Crashed nodes are the crash registry's business: the detector must
	// not also quarantine them, however suspicious they look.
	sys.TriggerStateRound()
	sys.Quiesce()
	if sys.IsQuarantined(req.Dest) {
		t.Error("crashed node quarantined by the accrual detector")
	}
	// Recovery wipes the stale suspicion.
	if err := sys.Recover(req.Dest); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := sys.SuspicionLevel(req.Dest); got != 0 {
		t.Errorf("suspicion after recovery = %v, want 0", got)
	}
}

func TestHealthAccessorsDisabledAndOutOfRange(t *testing.T) {
	topo, caps := buildFixture(t, 84)
	sys := startSystem(t, topo, caps, Config{})
	if sys.IsQuarantined(-1) || sys.IsQuarantined(topo.N()+3) || sys.IsQuarantined(0) {
		t.Error("quarantine reported with health disabled")
	}
	if sys.SuspicionLevel(0) != 0 || sys.SuspicionLevel(-2) != 0 {
		t.Error("nonzero suspicion with health disabled")
	}
	if got := sys.QuarantinedNodes(); got != nil {
		t.Errorf("QuarantinedNodes = %v, want nil", got)
	}
	sys.noteRPCOutcome(0, false) // must be a no-op, not a panic
	if hc := sys.HealthCounters(); hc != (HealthStats{}) {
		t.Errorf("HealthCounters = %+v, want zero", hc)
	}
}

func TestDegradedRouteFallback(t *testing.T) {
	topo, caps := buildFixture(t, 85)
	cfg := fastFaultConfig()
	cfg.DegradedRoutes = true
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	req, err := newRequest(t, caps, 85)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	fresh, err := sys.Route(req)
	if err != nil {
		t.Fatalf("fresh Route: %v", err)
	}
	if fresh.Degraded {
		t.Fatal("fresh result tagged Degraded")
	}

	// Partition the destination away (fail-stop is the harshest case) and
	// re-ask: the last-known-good answer comes back tagged, not an error.
	if err := sys.Crash(req.Dest); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	stale, err := sys.Route(req)
	if err != nil {
		t.Fatalf("degraded Route: %v", err)
	}
	if !stale.Degraded {
		t.Error("stale result not tagged Degraded")
	}
	if !reflect.DeepEqual(stale.CSP, fresh.CSP) || !reflect.DeepEqual(stale.Path, fresh.Path) {
		t.Error("degraded result differs from the last-known-good route")
	}
	if fresh.Degraded {
		t.Error("degraded serving mutated the stored result")
	}
	if fc := sys.FaultCounters(); fc.DegradedRoutes != 1 {
		t.Errorf("DegradedRoutes = %d, want 1", fc.DegradedRoutes)
	}

	// A deployment change voids the stale-but-valid promise: the store is
	// cleared and the partitioned destination is an error again.
	if err := sys.UpdateCapability(req.Source, caps[req.Source].Clone()); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}
	if _, rerr := sys.Route(req); !errors.Is(rerr, ErrRPCTimeout) {
		t.Fatalf("Route after LKG clear: err = %v, want ErrRPCTimeout", rerr)
	}
}

func TestDegradedRouteRequiresKnownGood(t *testing.T) {
	topo, caps := buildFixture(t, 86)
	cfg := fastFaultConfig()
	cfg.DegradedRoutes = true
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	req, err := newRequest(t, caps, 86)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	if err := sys.Crash(req.Dest); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// Nothing was ever resolved for this request: degraded serving must
	// not invent a route.
	if _, rerr := sys.Route(req); !errors.Is(rerr, ErrRPCTimeout) {
		t.Fatalf("Route with empty LKG: err = %v, want ErrRPCTimeout", rerr)
	}
	if fc := sys.FaultCounters(); fc.DegradedRoutes != 0 {
		t.Errorf("DegradedRoutes = %d, want 0", fc.DegradedRoutes)
	}
}

// TestDegradedRouteCollisionGuard files one request's last-known-good route
// under another request's key — what a 64-bit fingerprint collision between
// their service graphs would do — and partitions the destination: the second
// request must time out, not be answered with a route for the first one's
// graph. The store runs the route cache's guard (TestRouteCacheCollisionGuard).
func TestDegradedRouteCollisionGuard(t *testing.T) {
	topo, caps := buildFixture(t, 87)
	cfg := fastFaultConfig()
	cfg.DegradedRoutes = true
	sys := startSystem(t, topo, caps, cfg)
	convergeRounds(t, sys, 2)
	req, err := newRequest(t, caps, 87)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	if _, err := sys.Route(req); err != nil {
		t.Fatalf("fresh Route: %v", err)
	}
	other := req
	if other.SG, err = svc.Linear(req.SG.Services[0]); err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if other.SG.Canonical() == req.SG.Canonical() {
		t.Fatal("the colliding request must ask for a different graph")
	}
	known, ok := sys.cache.LastKnownGood(routing.NewCacheKey(req.Source, req.Dest, req.SG), req.SG.Canonical(), nil)
	if !ok {
		t.Fatal("the store holds nothing for the request just routed")
	}
	sys.cache.Put(routing.NewCacheKey(other.Source, other.Dest, other.SG), req.SG.Canonical(), known, nil, sys.cache.Version())

	if err := sys.Crash(req.Dest); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if res, rerr := sys.Route(other); !errors.Is(rerr, ErrRPCTimeout) {
		t.Fatalf("Route under a forged collision = (%+v, %v), want ErrRPCTimeout", res, rerr)
	}
	if fc := sys.FaultCounters(); fc.DegradedRoutes != 0 {
		t.Errorf("DegradedRoutes = %d after a refused lookup, want 0", fc.DegradedRoutes)
	}
	if stale, err := sys.Route(req); err != nil || !stale.Degraded {
		t.Errorf("Route for the graph the store holds = (%+v, %v), want its degraded route", stale, err)
	}
}
