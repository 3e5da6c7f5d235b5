package overlay

import (
	"math"
	"testing"
	"time"
)

func TestDropRateValidation(t *testing.T) {
	topo, caps := buildFixture(t, 30)
	if _, err := New(topo, caps, Config{DropRate: -0.1}); err == nil {
		t.Error("negative drop rate accepted")
	}
	if _, err := New(topo, caps, Config{DropRate: 1.5}); err == nil {
		t.Error("drop rate > 1 accepted")
	}
	if _, err := New(topo, caps, Config{ProtocolDropRate: -0.1}); err == nil {
		t.Error("negative protocol drop rate accepted")
	}
	if _, err := New(topo, caps, Config{ProtocolDropRate: 1.5}); err == nil {
		t.Error("protocol drop rate > 1 accepted")
	}
}

// TestDelayAndDropBoundaries: a configuration that cannot mean what it says
// is refused instead of quietly running as something else — a negative
// DelayPerUnit used to give an undelayed simulation, a NaN rate one that
// never drops — and a link verdict's negative Delay holds nothing back but
// does not shorten the link either: the round takes exactly as long on the
// virtual clock as with no policy at all.
func TestDelayAndDropBoundaries(t *testing.T) {
	topo, caps := buildFixture(t, 32)
	roundTakes := func(cfg Config) time.Duration {
		sys, sim := startSimSystem(t, topo, caps, cfg)
		sim.Run(func() {
			sys.TriggerStateRound()
			sys.Quiesce()
		})
		return sim.Now()
	}
	plain := roundTakes(Config{DelayPerUnit: time.Microsecond})
	if plain == 0 {
		t.Fatal("a delayed round took no virtual time")
	}
	early := func(from, to int, kind MsgKind) LinkVerdict { return LinkVerdict{Delay: -time.Hour} }
	for _, tc := range []struct {
		name     string
		cfg      Config
		rejected bool
	}{
		{"negative DelayPerUnit", Config{DelayPerUnit: -time.Microsecond}, true},
		{"NaN DropRate", Config{DropRate: math.NaN()}, true},
		{"NaN ProtocolDropRate", Config{ProtocolDropRate: math.NaN()}, true},
		{"negative verdict Delay", Config{DelayPerUnit: time.Microsecond, LinkPolicy: early}, false},
	} {
		if tc.rejected {
			if _, err := New(topo, caps, tc.cfg); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		} else if got := roundTakes(tc.cfg); got != plain {
			t.Errorf("%s: the round took %v, want the configured latency's %v", tc.name, got, plain)
		}
	}
}

func TestLossyProtocolEventuallyConverges(t *testing.T) {
	// With 30% loss a single round leaves gaps, but the periodic protocol
	// resends everything each round, so convergence must arrive within a
	// bounded number of rounds (P(miss k rounds) = 0.3^k per message).
	topo, caps := buildFixture(t, 31)
	sys := startSystem(t, topo, caps, Config{ProtocolDropRate: 0.3, DropSeed: 7})

	converged := false
	rounds := 0
	for ; rounds < 40; rounds++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		ok, err := sys.Converged()
		if err != nil {
			t.Fatalf("Converged: %v", err)
		}
		if ok {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("no convergence after %d lossy rounds (%d messages dropped)", rounds, sys.DroppedMessages())
	}
	if sys.DroppedMessages() == 0 {
		t.Error("fault injection dropped nothing at rate 0.3")
	}
	t.Logf("converged after %d rounds with %d dropped messages", rounds+1, sys.DroppedMessages())
}

func TestFullLossNeverConverges(t *testing.T) {
	topo, caps := buildFixture(t, 32)
	sys := startSystem(t, topo, caps, Config{ProtocolDropRate: 1.0, DropSeed: 7})
	for i := 0; i < 3; i++ {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
	ok, err := sys.Converged()
	if err != nil {
		t.Fatalf("Converged: %v", err)
	}
	if ok {
		t.Error("system converged despite 100% protocol loss")
	}
	if sys.DroppedMessages() == 0 {
		t.Error("no drops recorded at rate 1.0")
	}
}

func TestRoutingStillWorksAfterLossyConvergence(t *testing.T) {
	// ProtocolDropRate spares the request plane, so every Route must
	// succeed once the state protocol has healed. 40 rounds at 20% loss
	// leave P(any single message missed every round) ≈ 10^-28 — if this
	// seed fails to converge, the protocol is broken, hence Fatal below.
	topo, caps := buildFixture(t, 33)
	sys := startSystem(t, topo, caps, Config{ProtocolDropRate: 0.2, DropSeed: 3})
	converged := false
	for i := 0; i < 40; i++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		if ok, err := sys.Converged(); err != nil {
			t.Fatalf("Converged: %v", err)
		} else if ok {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("no convergence after 40 rounds at 20%% protocol loss (seed 3, %d dropped)", sys.DroppedMessages())
	}
	// Requests and replies are never dropped; routing over the recovered
	// state must produce valid paths.
	reqsDone := 0
	for i := 0; i < 10; i++ {
		req, err := newRequest(t, caps, int64(i))
		if err != nil {
			continue
		}
		res, rerr := sys.Route(req)
		if rerr != nil {
			t.Fatalf("Route: %v", rerr)
		}
		if err := res.Path.Validate(req, caps); err != nil {
			t.Fatalf("invalid path after lossy convergence: %v", err)
		}
		reqsDone++
	}
	if reqsDone == 0 {
		t.Fatal("no requests exercised")
	}
}
