package overlay

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// flatDelayWorld is the geometry of the flat_n600_delay golden run, started.
func flatDelayWorld(t *testing.T) (*System, *simDriver, *vtime.Sim) {
	t.Helper()
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.NewSim()
	w, err := newFlatWorld(SimSpec{N: 600, DelayPerUnit: time.Microsecond}, rand.New(rand.NewSource(42)), cat, sim)
	if err != nil {
		t.Fatal(err)
	}
	sys := w.systems[0]
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Stop() })
	return sys, sys.drv.(*simDriver), sim
}

// TestSimDriverInFlightStore pins what delayed delivery costs on the event
// driver, on the geometry of the flat_n600_delay golden run. It counts heap
// objects, so CI also runs it without the race detector (make sim).
func TestSimDriverInFlightStore(t *testing.T) {
	// A steady, churn-free state round allocates at most a quarter of an
	// object per delivered message (the flood payloads and the round's tables
	// — no closure, timer, boxed event or batch object per message or per
	// flood), its floods outgrow the chunk the store keeps, and once the
	// round has drained the store is back to that one chunk.
	t.Run("drained", func(t *testing.T) {
		sys, drv, sim := flatDelayWorld(t)
		peak := 0
		round := func() {
			sys.TriggerStateRound()
			if n := len(drv.chunks); n > peak {
				peak = n
			}
			sys.Quiesce()
			if drv.inFlight != 0 || len(drv.chunks) > 1 {
				t.Errorf("after Quiesce the store holds %d entries in %d chunks, want 0 in at most 1", drv.inFlight, len(drv.chunks))
			}
		}
		const runs = 4
		var allocs float64
		var msgs int
		sim.Run(func() {
			round()
			round() // converged: what follows is steady state
			before := sys.Traffic().Total()
			allocs = testing.AllocsPerRun(runs, round)
			msgs = (sys.Traffic().Total() - before) / (runs + 1)
		})
		if peak < 2 {
			t.Errorf("the store peaked at %d chunk(s): the round never outgrew the chunk that is kept, so the give-back went untested", peak)
		}
		perMsg := allocs / float64(msgs)
		t.Logf("a steady round: %d messages, %.0f objects, %.3f per message; store peak %d chunks", msgs, allocs, perMsg, peak)
		if msgs == 0 || perMsg > 0.25 {
			t.Errorf("a steady round allocates %.3f objects per delivered message, want <= 0.25", perMsg)
		}
	})
	// A system that never drains — a new round every 100µs, each on top of
	// the ones still in flight — reuses the chunks whose entries have landed:
	// over 200 rounds the store stays at the size its first rounds reached.
	t.Run("never drained", func(t *testing.T) {
		sys, drv, sim := flatDelayWorld(t)
		early, late := 0, 0
		sim.Run(func() {
			for r := 0; r < 200; r++ {
				sys.TriggerStateRound()
				sim.Sleep(100 * time.Microsecond)
				if drv.inFlight == 0 {
					t.Errorf("round %d: the store drained; the rounds were meant to overlap", r)
					return
				}
				if r < 20 {
					early = max(early, len(drv.chunks))
				} else {
					late = max(late, len(drv.chunks))
				}
			}
			sys.Quiesce()
		})
		t.Logf("store peak: %d chunks in the first 20 rounds, %d in the 180 after", early, late)
		if early < 2 || late > early {
			t.Errorf("the store peaked at %d chunks in the first 20 rounds and %d later, want the first peak (>= 2) never exceeded", early, late)
		}
		if drv.inFlight != 0 || len(drv.chunks) > 1 {
			t.Errorf("after Quiesce the store holds %d entries in %d chunks, want 0 in at most 1", drv.inFlight, len(drv.chunks))
		}
	})
}

// TestSentPayloadIsNotMutated drives the mailbox driver, where every
// recipient of a flood reads the one shared payload from its own goroutine,
// through rounds, a capability update, a crash and recovery, routes and
// executions, with and without link delay. Under -race the detector is the
// oracle that no handler writes through a sent message; without it, floods
// sent by hand must come back unchanged.
func TestSentPayloadIsNotMutated(t *testing.T) {
	for _, delay := range []time.Duration{0, 5 * time.Microsecond} {
		topo, caps := buildFixture(t, 5)
		victim, _, err := topo.Border(0, 1)
		if err != nil {
			t.Fatalf("Border: %v", err)
		}
		update := (victim + 1) % topo.N()
		set := caps[update].Clone()
		set.Add("shared-payload-service")
		final := append([]svc.CapabilitySet(nil), caps...)
		final[update] = set
		gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(56)), final, 2, 4)
		if err != nil {
			t.Fatalf("NewRequestGenerator: %v", err)
		}
		reqs := make([]svc.Request, 4)
		for i := range reqs {
			if reqs[i], err = gen.Next(); err != nil {
				t.Fatalf("Next: %v", err)
			}
		}
		sys := startSystem(t, topo, caps, Config{DelayPerUnit: delay})
		parityScript(t, sys, update, victim, set, reqs)

		// One local flood to a whole cluster and one aggregate that its
		// receiving border re-floods, each a single shared message.
		seq := sys.round.Add(1)
		members := sys.nodes[victim].view.Members
		flood := &message{kind: kindLocal, localFrom: victim, localRank: sys.nodes[victim].rank,
			localSet: svc.NewCapabilitySet("by-hand"), localGen: 99, seq: seq}
		agg := &message{kind: kindAggregate, aggCluster: topo.ClusterOf(victim) + 1,
			aggSet: svc.NewCapabilitySet("by-hand"), aggGen: 1 << 40, aggForward: true, seq: seq}
		wantFlood, wantAgg := *flood, *agg
		wantFlood.localSet, wantAgg.aggSet = flood.localSet.Clone(), agg.aggSet.Clone()
		for _, m := range members {
			if m != victim {
				sys.send(victim, m, flood)
			}
			sys.send(victim, m, agg)
		}
		sys.Quiesce()
		if !reflect.DeepEqual(*flood, wantFlood) {
			t.Errorf("delay %v: a sent local flood was written to: %+v", delay, *flood)
		}
		if !reflect.DeepEqual(*agg, wantAgg) {
			t.Errorf("delay %v: a sent aggregate was written to: %+v", delay, *agg)
		}
	}
}
