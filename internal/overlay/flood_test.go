package overlay

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// perMessageDriver is the event driver as it ran before floods travelled in
// runs: a flood is the loop of sends, and every delayed message is an
// envelope and a Sim.Post of its own. It shares nothing with the run path —
// no PostBatch, no in-flight store — which is what makes it the oracle for
// TestFloodMatchesPerMessagePosts.
type perMessageDriver struct {
	*simDriver
	held []envelope
}

type envelope struct {
	m        *message
	from, to int
}

func (d *perMessageDriver) flood(from int, members []int, m *message) {
	for _, to := range members {
		if to != from {
			d.sys.send(from, to, m)
		}
	}
}

func (d *perMessageDriver) post(from, to int, m *message, delay time.Duration) {
	if delay <= 0 {
		d.deliver(from, to, m)
		return
	}
	d.held = append(d.held, envelope{m, from, to})
	d.sim.Post(delay, d.arrive, len(d.held)-1)
}

func (d *perMessageDriver) arrive(i int) {
	e := d.held[i]
	d.held[i] = envelope{}
	d.deliver(e.from, e.to, e.m)
}

// floodWorld builds a seeded world with everything switched on that decides a
// message's fate: link delay, random protocol loss, and a link policy that —
// on top of the world's own partition filter — delays and duplicates messages
// from a random stream of its own, so a verdict asked for in a different
// order is a different verdict. perMessage swaps every runtime's driver for
// the oracle. scenario runs the Simulate script on the world.
func floodWorld(t *testing.T, multilevel, perMessage bool, seed int64) (w *simWorld, sim *vtime.Sim, scenario func() (*SimReport, error)) {
	t.Helper()
	spec := SimSpec{N: 600, Churn: 3, Crashes: 2, Partition: true, Probes: 6, DelayPerUnit: time.Microsecond}.withDefaults()
	build := newFlatWorld
	if multilevel {
		spec.N, spec.Multilevel, spec.Partition = 1200, true, false
		build = newMultilevelWorld
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sim = vtime.NewSim()
	if w, err = build(spec, rng, cat, sim); err != nil {
		t.Fatal(err)
	}
	for g, sys := range w.systems {
		sys.cfg.ProtocolDropRate = 0.04
		sys.dropRng = rand.New(rand.NewSource(seed + int64(g)))
		world, verdicts := sys.cfg.LinkPolicy, rand.New(rand.NewSource(seed+int64(g)))
		sys.cfg.LinkPolicy = func(from, to int, kind MsgKind) LinkVerdict {
			var v LinkVerdict
			if world != nil {
				v = world(from, to, kind)
			}
			switch verdicts.Intn(16) {
			case 0:
				v.Delay = time.Duration(1+verdicts.Intn(40)) * time.Microsecond
			case 1:
				v.Duplicate = true
			case 2:
				v.Delay, v.Duplicate = 3*time.Microsecond, true
			}
			return v
		}
		if perMessage {
			sys.drv = &perMessageDriver{simDriver: sys.drv.(*simDriver)}
		}
	}
	return w, sim, func() (*SimReport, error) { return w.run(spec, seed, rng, cat, sim) }
}

// TestFloodMatchesPerMessagePosts: a flood handed to the clock as runs is
// delivered exactly as the same flood posted recipient by recipient — the
// whole Simulate scenario, and a second script that crashes a node and then
// stops the runtimes with floods in flight, give the same trace, state
// digest, traffic, fault counters and virtual clock on the event driver and
// on the per-message oracle, in a flat and in a multilevel world.
func TestFloodMatchesPerMessagePosts(t *testing.T) {
	for _, multilevel := range []bool{false, true} {
		name := "flat"
		if multilevel {
			name = "multilevel"
		}
		t.Run(name+"/scenario", func(t *testing.T) {
			var got [2]string
			for i, perMessage := range []bool{false, true} {
				_, _, scenario := floodWorld(t, multilevel, perMessage, 21)
				rep, err := scenario()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Faults.Dropped == 0 || rep.Faults.DuplicatedByPolicy == 0 || (!multilevel && rep.Faults.DroppedByPolicy == 0) {
					t.Errorf("the scenario exercised too little: %+v", rep.Faults)
				}
				got[i] = fmt.Sprintf("%sfaults=%+v\n", simGolden(rep), rep.Faults)
			}
			if got[0] != got[1] {
				t.Errorf("runs diverge from per-message posts:\n--- runs ---\n%s\n--- per message ---\n%s", got[0], got[1])
			}
		})
		t.Run(name+"/in-flight", func(t *testing.T) {
			var got [2]string
			for i, perMessage := range []bool{false, true} {
				w, sim, _ := floodWorld(t, multilevel, perMessage, 22)
				got[i] = inFlightScript(t, w, sim)
			}
			if got[0] != got[1] {
				t.Errorf("runs diverge from per-message posts:\n--- runs ---\n%s\n--- per message ---\n%s", got[0], got[1])
			}
		})
	}
}

// inFlightScript interrupts rounds instead of waiting them out: it crashes a
// node and recovers it while the round's floods are on their way, starts the
// next round on top of the last, and finally stops every runtime with floods
// still in flight, logging the counters, the clock and the state digest at
// each step.
func inFlightScript(t *testing.T, w *simWorld, sim *vtime.Sim) string {
	t.Helper()
	for _, sys := range w.systems {
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var log strings.Builder
	var fs FaultStats
	note := func(step string) {
		var tf TrafficStats
		fs = FaultStats{}
		for _, sys := range w.systems {
			tf.add(sys.Traffic())
			fs.add(sys.FaultCounters())
		}
		fmt.Fprintf(&log, "%s: t=%v pending=%d traffic=%+v faults=%+v digest=%016x\n", step, sim.Now(), sim.Pending(), tf, fs, w.digest())
	}
	trigger := func() {
		for _, sys := range w.systems {
			sys.TriggerStateRound()
		}
	}
	sim.Run(func() {
		trigger()
		w.systems[0].Quiesce()
		note("converged once")
		for i, victim := range []int{7, 311} {
			g, local := w.locate(victim)
			trigger()
			sim.Sleep(20 * time.Microsecond)
			if sim.Pending() == 0 {
				t.Errorf("crash %d: nothing in flight 20µs into a round", i)
			}
			if err := w.systems[g].Crash(local); err != nil {
				t.Error(err)
			}
			note(fmt.Sprintf("crash %d in flight", i))
			sim.Sleep(35 * time.Microsecond)
			trigger() // a round on top of one still in flight
			sim.Sleep(15 * time.Microsecond)
			if err := w.systems[g].Recover(local); err != nil {
				t.Error(err)
			}
			note(fmt.Sprintf("recover %d in flight", i))
			w.systems[0].Quiesce()
			note(fmt.Sprintf("drained %d", i))
		}
		trigger()
		sim.Sleep(25 * time.Microsecond)
		if sim.Pending() == 0 {
			t.Error("nothing in flight at Stop")
		}
		for _, sys := range w.systems {
			if err := sys.Stop(); err != nil {
				t.Error(err)
			}
		}
		note("stopped in flight")
		sim.WaitIdle()
		note("landed after stop")
	})
	if fs.DroppedAfterStop == 0 || fs.DroppedToCrashed == 0 {
		t.Errorf("the script exercised too little: %+v", fs)
	}
	return log.String()
}
