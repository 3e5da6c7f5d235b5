package routing

import (
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
)

func resolverFixture(t *testing.T) *hfc.Topology {
	t.Helper()
	pts := []coords.Point{
		{0, 0}, {0, 10}, {0, 20}, {0, 30}, // cluster 0
		{100, 0}, {100, 10}, {100, 20}, {100, 30}, // cluster 1
		{50, 200}, {50, 210}, {50, 220}, {50, 230}, // cluster 2
	}
	assignment := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	clusters := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
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

func TestResolverCandidatesOwnCluster(t *testing.T) {
	topo := resolverFixture(t)
	view, err := topo.View(0)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	child := ChildRequest{Cluster: 0, Source: 0, Dest: 2, Resolver: 2}
	got := ResolverCandidates(view, child)
	if got[0] != 2 {
		t.Fatalf("candidates %v: designated resolver not first", got)
	}
	if len(got) != len(view.Members) {
		t.Errorf("candidates %v: want all %d cluster members", got, len(view.Members))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if seen[c] {
			t.Errorf("candidates %v contain duplicate %d", got, c)
		}
		seen[c] = true
		if topo.ClusterOf(c) != 0 {
			t.Errorf("candidate %d outside cluster 0", c)
		}
	}
}

func TestResolverCandidatesForeignClusterUsesBorders(t *testing.T) {
	topo := resolverFixture(t)
	view, err := topo.View(0) // cluster 0 looking into cluster 1
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	in1, _, err := topo.Border(1, 0)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	child := ChildRequest{Cluster: 1, Source: in1, Dest: in1, Resolver: in1}
	got := ResolverCandidates(view, child)
	// The designated resolver, then cluster 1's border toward cluster 2:
	// the only proxies of cluster 1 a member of cluster 0 can address.
	toward2, _, err := topo.Border(1, 2)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	if len(got) != 2 || got[0] != in1 || got[1] != toward2 {
		t.Fatalf("candidates %v, want the designated resolver %d then the border toward cluster 2, %d", got, in1, toward2)
	}
	for _, c := range got {
		if topo.ClusterOf(c) != 1 {
			t.Errorf("candidate %d not in target cluster 1", c)
		}
	}
}
