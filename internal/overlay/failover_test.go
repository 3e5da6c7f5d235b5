package overlay

import (
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/svc"
)

// TestChildFailoverListIsBuiltOnFailover: rpcSolver.SolveChild asks the
// designated resolver first and builds routing.ResolverCandidates only once
// that attempt has timed out. Under unresponsive resolvers the child RPCs
// still walk the candidate list in its order — each silent candidate asked
// RPCRetries+1 times, then the next — and one success past the front counts
// one ResolverFailover; with no fault, only the designated resolver is asked
// and the solve allocates fewer objects than the list has border lookups
// (K−1).
func TestChildFailoverListIsBuiltOnFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 400
	cmap, err := coords.NewMap(simPoints(rng, n, 20))
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	clustering, err := cluster.Cluster(n, cmap.Dist, cluster.Config{Points: cmap.Points, MinClusterSize: 8})
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	k := topo.NumClusters()
	if k < 16 {
		t.Fatalf("fixture has %d clusters, want >= 16 for the allocation bound to mean something", k)
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, n, cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}

	// The policy runs on the virtual clock's one runner, as the test body
	// does, so plain variables suffice.
	silent := map[int]bool{}
	var asked []int
	cfg := fastFaultConfig()
	cfg.LinkPolicy = func(from, to int, kind MsgKind) LinkVerdict {
		if kind != MsgChild {
			return LinkVerdict{}
		}
		asked = append(asked, to)
		return LinkVerdict{Drop: silent[to]}
	}
	sys, sim := startSimSystem(t, topo, caps, cfg)

	// A relay child for a foreign cluster, as dissect would hand the
	// destination's solver: from a member of ca to ca's border toward cb.
	const ca, cb = 0, 1
	dest := topo.Members(cb)[0]
	inCa, _, err := topo.Border(ca, cb)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	src := topo.Members(ca)[0]
	if src == inCa {
		src = topo.Members(ca)[1]
	}
	child := routing.ChildRequest{Cluster: ca, Source: src, Dest: inCa, Resolver: inCa}
	node := sys.nodes[dest]
	// Failure-detector lag: the destination believes everyone alive, so the
	// solver learns of a silent resolver only by missing deadlines.
	node.view.Alive = func(int) bool { return true }
	candidates := routing.ResolverCandidates(node.view, child)
	if len(candidates) < 3 || candidates[0] != inCa {
		t.Fatalf("ResolverCandidates = %v, want the designated resolver %d and at least two alternates", candidates, inCa)
	}

	sim.Run(func() {
		convergeRounds(t, sys, 2)

		silent[candidates[0]], silent[candidates[1]] = true, true
		asked = nil
		before := sys.FaultCounters()
		path, err := (&rpcSolver{n: node}).SolveChild(child)
		if err != nil {
			t.Errorf("SolveChild with two silent resolvers: %v", err)
			return
		}
		if len(path.Hops) != 2 || path.Hops[0].Node != src || path.Hops[1].Node != inCa {
			t.Errorf("relay child path = %v, want %d then %d", path, src, inCa)
		}
		var want []int
		for _, c := range candidates[:2] {
			for attempt := 0; attempt <= cfg.RPCRetries; attempt++ {
				want = append(want, c)
			}
		}
		want = append(want, candidates[2])
		if !reflect.DeepEqual(asked, want) {
			t.Errorf("child RPCs went to %v, want %v (candidate order %v)", asked, want, candidates)
		}
		after := sys.FaultCounters()
		if got := after.ResolverFailovers - before.ResolverFailovers; got != 1 {
			t.Errorf("ResolverFailovers rose by %d, want 1", got)
		}
		if got, want := after.RPCRetries-before.RPCRetries, 2*cfg.RPCRetries; got != want {
			t.Errorf("RPCRetries rose by %d, want %d", got, want)
		}

		clear(silent)
		asked = nil
		before = after
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := (&rpcSolver{n: node}).SolveChild(child); err != nil {
				t.Errorf("fault-free SolveChild: %v", err)
			}
		})
		t.Logf("a fault-free foreign child solve allocates %v objects; K = %d, the failover list is %d border lookups", allocs, k, k-1)
		if allocs >= float64(k-1) {
			t.Errorf("a fault-free child solve allocates %v objects, want fewer than the failover list's %d", allocs, k-1)
		}
		if len(asked) != runs+1 {
			t.Errorf("%d fault-free solves sent %d child RPCs, want one each", runs+1, len(asked))
		}
		for _, to := range asked {
			if to != inCa {
				t.Errorf("a fault-free solve asked %d, want only the designated resolver %d", to, inCa)
				break
			}
		}
		if got := sys.FaultCounters().ResolverFailovers - before.ResolverFailovers; got != 0 {
			t.Errorf("fault-free solves counted %d ResolverFailovers, want 0", got)
		}
	})
}
