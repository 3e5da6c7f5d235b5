package state

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// lineTopology builds an HFC topology whose clusters have the given sizes,
// members numbered cluster by cluster along a line.
func lineTopology(t *testing.T, sizes ...int) *hfc.Topology {
	t.Helper()
	var pts []coords.Point
	var assignment []int
	clusters := make([][]int, len(sizes))
	for c, m := range sizes {
		for r := 0; r < m; r++ {
			clusters[c] = append(clusters[c], len(pts))
			assignment = append(assignment, c)
			pts = append(pts, coords.Point{float64(100*c + r), 0})
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, &cluster.Result{Assignment: assignment, Clusters: clusters})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// id names a table by its storage, the way routing.LazyIndexes does.
func id(table []svc.CapabilitySet) *svc.CapabilitySet { return &table[0] }

// TestUpdateMatchesDistribute holds the per-cluster update to the whole-overlay
// routine it shares its step with: over seeded random sequences on three
// topologies (one with singleton clusters), after every step the updated
// states DeepEqual a fresh Distribute and pass VerifyConvergence, the returned
// flag says whether the cluster's aggregate moved, the tables the update had
// to replace are new and every other one is the slice it was, and the states
// the sequence started from still describe the first deployment.
func TestUpdateMatchesDistribute(t *testing.T) {
	services := []svc.Service{"a", "b", "c", "d", "e", "f"}
	randomSet := func(rng *rand.Rand) svc.CapabilitySet {
		set := svc.NewCapabilitySet()
		for _, s := range services {
			if rng.Intn(3) == 0 {
				set.Add(s)
			}
		}
		return set
	}
	for ti, sizes := range [][]int{{3, 2, 4}, {1, 5, 1, 3}, {6, 6, 6, 6, 6, 6, 6, 6}} {
		t.Run(fmt.Sprint(sizes), func(t *testing.T) {
			topo := lineTopology(t, sizes...)
			rng := rand.New(rand.NewSource(int64(230 + ti)))
			caps := make([]svc.CapabilitySet, topo.N())
			for i := range caps {
				caps[i] = randomSet(rng)
			}
			first, _, err := Distribute(topo, caps)
			if err != nil {
				t.Fatalf("Distribute: %v", err)
			}
			firstCaps := append([]svc.CapabilitySet(nil), caps...)
			states := append([]NodeState(nil), first...)
			kinds := map[string]int{}
			for step := 0; step < 200; step++ {
				node := rng.Intn(topo.N())
				c := topo.ClusterOf(node)
				members := topo.Members(c)
				others := svc.NewCapabilitySet()
				for _, p := range members {
					if p != node {
						others.UnionInto(caps[p])
					}
				}
				var next svc.CapabilitySet
				kind := [...]string{"random", "empty", "same", "drop-only-provider", "add-new-to-cluster"}[rng.Intn(5)]
				switch kind {
				case "random":
					next = randomSet(rng)
				case "empty":
					next = svc.NewCapabilitySet()
				case "same":
					next = caps[node].Clone()
				case "drop-only-provider":
					// Lose a service no other member of the cluster offers.
					next = caps[node].Clone()
					for _, s := range caps[node].Sorted() {
						if !others.Has(s) {
							delete(next, s)
							break
						}
					}
				case "add-new-to-cluster":
					next = caps[node].Clone()
					for _, s := range services {
						if !others.Has(s) && !next.Has(s) {
							next.Add(s)
							break
						}
					}
				}
				if len(members) == 1 {
					kind += "/singleton"
				}
				before := append([]NodeState(nil), states...)
				wantChanged := !svc.Union(others, next).Equal(svc.Union(others, caps[node]))
				caps[node] = next

				changed := Update(topo, caps, states, node)

				if changed != wantChanged {
					t.Fatalf("step %d (%s): Update reports aggregate changed = %v, the aggregate says %v", step, kind, changed, wantChanged)
				}
				if changed {
					kind += "/aggregate"
				}
				kinds[kind]++
				want, _, err := Distribute(topo, caps)
				if err != nil {
					t.Fatalf("Distribute: %v", err)
				}
				if !reflect.DeepEqual(states, want) {
					t.Fatalf("step %d (%s): updated states differ from a fresh Distribute", step, kind)
				}
				if err := VerifyConvergence(topo, caps, states); err != nil {
					t.Fatalf("step %d (%s): %v", step, kind, err)
				}
				for i := range states {
					if inCluster := topo.ClusterOf(i) == c; (id(states[i].SCTP) != id(before[i].SCTP)) != inCluster {
						t.Fatalf("step %d (%s): node %d (cluster %d, updated cluster %d): SCT_P replaced = %v",
							step, kind, i, topo.ClusterOf(i), c, !inCluster)
					}
					if (id(states[i].SCTC) != id(before[i].SCTC)) != changed {
						t.Fatalf("step %d (%s): node %d: SCT_C replaced = %v, aggregate changed = %v", step, kind, i, !changed, changed)
					}
					if first := topo.Members(topo.ClusterOf(i))[0]; id(states[i].SCTP) != id(states[first].SCTP) || id(states[i].SCTC) != id(states[0].SCTC) {
						t.Fatalf("step %d (%s): node %d does not share its cluster's SCT_P or the system's SCT_C", step, kind, i)
					}
				}
			}
			if err := VerifyConvergence(topo, firstCaps, first); err != nil {
				t.Fatalf("the updates edited a table of the states they started from: %v", err)
			}
			for _, want := range []string{"random/aggregate", "empty", "same", "drop-only-provider/aggregate", "add-new-to-cluster/aggregate"} {
				if kinds[want] == 0 {
					t.Errorf("the sequence never made a %q step: %v", want, kinds)
				}
			}
			if sizes[0] == 1 && kinds["random/singleton/aggregate"] == 0 {
				t.Errorf("no aggregate-changing update of a singleton cluster: %v", kinds)
			}
			t.Logf("steps by kind: %v", kinds)
		})
	}
}
