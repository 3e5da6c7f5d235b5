package overlay

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// TestMalformedFloodsStopAtTheNode injects, into a converged system, floods
// that name no slot of the receiver's tables: a local-state flood whose origin
// is not a member of the receiver's cluster (it used to be installed into
// SCT_P, untracked by the generation tokens), an aggregate for a cluster id
// outside [0, K) (installed under whatever key it named), and an aggregate for
// the receiver's own cluster, whose SCT_C slot is the union the receiver takes
// itself (installed over it, so Converged read false until the next re-union).
// Each is rejected at the node, counted with the stale floods, and leaves every
// table and round tracker as it was.
func TestMalformedFloodsStopAtTheNode(t *testing.T) {
	topo, caps := buildFixture(t, 66)
	sys := startSystem(t, topo, caps, Config{})
	convergeRounds(t, sys, 2)

	victim := 0
	foreign := -1
	for i := 0; i < topo.N(); i++ {
		if topo.ClusterOf(i) != topo.ClusterOf(victim) {
			foreign = i
			break
		}
	}
	if foreign < 0 {
		t.Fatal("fixture has one cluster")
	}
	k := topo.NumClusters()
	seq := sys.round.Load() + 1 // fresh: the sequence check alone would accept it
	bogus := svc.NewCapabilitySet("bogus")
	malformed := []message{
		{kind: kindLocal, localFrom: foreign, localRank: sys.nodes[foreign].rank, localSet: bogus, localGen: 7, seq: seq},
		{kind: kindLocal, localFrom: foreign, localRank: 0, localSet: bogus, seq: seq},
		{kind: kindLocal, localFrom: foreign, localRank: -1, localSet: bogus, seq: seq},
		{kind: kindLocal, localFrom: -3, localRank: 1, localSet: bogus, seq: seq},
		{kind: kindLocal, localFrom: topo.N() + 5, localRank: 1 << 20, localSet: bogus, localGen: 7, seq: seq},
		{kind: kindAggregate, aggCluster: -1, aggSet: bogus, aggGen: 1 << 40, seq: seq},
		{kind: kindAggregate, aggCluster: k, aggSet: bogus, aggGen: 1 << 40, aggForward: true, seq: seq},
		{kind: kindAggregate, aggCluster: 1 << 20, aggSet: bogus, aggForward: true, seq: seq},
		{kind: kindAggregate, aggCluster: topo.ClusterOf(victim), aggSet: bogus, aggGen: 1 << 40, seq: seq},
		{kind: kindAggregate, aggCluster: topo.ClusterOf(victim), aggSet: bogus, aggGen: 1 << 40, aggForward: true, seq: seq},
	}

	before, err := sys.States()
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	rejected := sys.FaultCounters().StaleRejected
	for i := range malformed {
		sys.send(-1, victim, &malformed[i])
		sys.Quiesce()
		after, err := sys.States()
		if err != nil {
			t.Fatalf("States: %v", err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Errorf("malformed message %d (%+v) changed the tables", i, malformed[i])
		}
		rejected++
		if got := sys.FaultCounters().StaleRejected; got != rejected {
			t.Errorf("malformed message %d: StaleRejected = %d, want %d", i, got, rejected)
		}
	}
	if ok, err := sys.Converged(); err != nil || !ok {
		t.Errorf("Converged after the injections = %v, %v", ok, err)
	}
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestNodeTablesFootprint pins what a proxy's protocol state weighs, on the
// geometry of the flat_n600_delay golden run: everything a System holds once
// it has converged is within a quarter of what the table layout predicts
// (with four maps per proxy it was 4.8 kB here, against 3.0), and fifty
// rounds of churn add nothing to it. It reads the heap, so CI also runs it
// without the race detector (make sim).
func TestNodeTablesFootprint(t *testing.T) {
	// The geometry and deployment come from a first world, which stays alive
	// across both readings and so cancels out of their difference.
	world, _, _ := flatDelayWorld(t)
	topo, caps := world.topo, world.Capabilities()
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	updates := make([]svc.CapabilitySet, 50*10)
	for i := range updates {
		updates[i] = svc.NewCapabilitySet(cat.Services()[rng.Intn(12)], cat.Services()[rng.Intn(12)])
	}

	base := liveHeap()
	sim := vtime.NewSim()
	sys, err := New(topo, caps, Config{Clock: sim, DelayPerUnit: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Stop() })
	round := func() {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
	var converged, churned uint64
	sim.Run(func() {
		round()
		round()
		converged = liveHeap() - base
		for r := 0; r < 50; r++ {
			for u := 0; u < 10; u++ {
				if err := sys.UpdateCapability(rng.Intn(topo.N()), updates[r*10+u]); err != nil {
					t.Error(err)
					return
				}
			}
			round()
		}
		round() // the aggregates of the last updates
		churned = liveHeap() - base
	})
	if ok, err := sys.Converged(); err != nil || !ok {
		t.Fatalf("Converged after the churn = %v, %v", ok, err)
	}

	// The layout: per proxy one set pointer, one round stamp and one
	// generation stamp per cluster member and per cluster, one forward epoch
	// per cluster, the node itself, and 1 KiB for what does not grow with the
	// tables — its view, its own capability set and its cluster's aggregate
	// (SCT_C's own slot), its share of the clock's queue and of the chunk the
	// driver keeps.
	const (
		entry = unsafe.Sizeof(svc.CapabilitySet(nil)) + 2*unsafe.Sizeof(uint64(0))
		fixed = unsafe.Sizeof(node{}) + 1<<10
	)
	n, k := topo.N(), topo.NumClusters()
	var layout uintptr
	for c := 0; c < k; c++ {
		m := uintptr(len(topo.Members(c)))
		layout += m * ((m+uintptr(k))*entry + uintptr(k)*unsafe.Sizeof(uint32(0)) + fixed)
	}
	perNode, budget := float64(converged)/float64(n), float64(layout)/float64(n)
	t.Logf("n=%d K=%d: %.0f B live per proxy converged (layout %.0f B, ×%.2f), %+d B in all after 50 rounds of churn",
		n, k, perNode, budget, perNode/budget, int64(churned)-int64(converged))
	if perNode > 1.25*budget {
		t.Errorf("a converged proxy weighs %.0f B, want at most 1.25 × the %.0f B of its layout", perNode, budget)
	}
	// The updates replace 500 two-service sets by others of the same shape;
	// one percent covers the sets' own size differences.
	if float64(churned) > 1.01*float64(converged) {
		t.Errorf("live heap grew from %d to %d B over 50 rounds of churn", converged, churned)
	}
}

// TestStateRoundAllocatesNoTableMemory pins the receive path of §4: storing
// a flood into the tables New sized allocates nothing, on a fresh proxy
// filling every slot for the first time (a cold round), on the same proxy
// again (a steady round), and on one back from Recover with its tables
// cleared in place — and, with every allocation of a cold rounds → crash →
// round → recover → rounds script profiled, no allocation site lies inside
// ApplyLocal or ApplyAggregate. It counts heap objects, so CI also runs it without the race
// detector (make sim).
func TestStateRoundAllocatesNoTableMemory(t *testing.T) {
	sys, _, sim := flatDelayWorld(t)
	// A second system over the same topology is never started: its tables
	// are the ones filled by hand.
	idle, err := New(sys.topo, sys.Capabilities(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := svc.NewCapabilitySet("s")
	var seq uint64
	st := &idle.nodes[1].state //hfcvet:ignore guardedby the system is never started: nothing else reads its nodes
	fill := func() {
		seq++
		for r := range st.SCTP {
			if !st.ApplyLocal(r, seq, set) {
				t.Fatalf("ApplyLocal(%d, %d) rejected", r, seq)
			}
		}
		for c := range st.SCTC {
			if !st.ApplyAggregate(c, seq, set) {
				t.Fatalf("ApplyAggregate(%d, %d) rejected", c, seq)
			}
		}
	}
	for _, stage := range []string{"fresh", "full", "recovered"} {
		if stage == "recovered" {
			if err := idle.Crash(1); err != nil {
				t.Fatal(err)
			}
			if err := idle.Recover(1); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.ServiceStateSize(); (got == 2) != (stage != "full") {
			t.Fatalf("a %s proxy has %d learned entries; want its own two and no more on a fresh or recovered one", stage, got)
		}
		if allocs := testing.AllocsPerRun(1, fill); allocs != 0 {
			t.Errorf("filling a %s proxy's tables allocates %.0f objects, want 0", stage, allocs)
		}
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	sim.Run(func() {
		for _, step := range []func(int) error{nil, nil, nil, sys.Crash, nil, sys.Recover, nil, nil} {
			if step == nil {
				sys.TriggerStateRound()
				sys.Quiesce()
			} else if err := step(2); err != nil {
				t.Error(err)
			}
		}
	})
	if ok, err := sys.Converged(); err != nil || !ok {
		t.Errorf("Converged after the script = %v, %v", ok, err)
	}
	runtime.GC()
	runtime.GC()
	records := make([]runtime.MemProfileRecord, 1<<14)
	nrec, ok := runtime.MemProfile(records, true)
	if !ok {
		t.Fatalf("the allocation profile has %d sites, more than the %d provided for", nrec, len(records))
	}
	for _, rec := range records[:nrec] {
		frames := runtime.CallersFrames(rec.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasSuffix(f.Function, "NodeState).ApplyLocal") || strings.HasSuffix(f.Function, "NodeState).ApplyAggregate") {
				t.Errorf("%d objects (%d B) were allocated inside %s", rec.AllocObjects, rec.AllocBytes, f.Function)
			}
		}
	}
}
