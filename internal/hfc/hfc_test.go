package hfc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"hfc/internal/cluster"
	"hfc/internal/coords"
)

// manualTopology builds an HFC topology from explicit points and an explicit
// cluster assignment (bypassing the MST detection, which has its own tests).
func manualTopology(t *testing.T, pts []coords.Point, assignment []int) *Topology {
	t.Helper()
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	res := manualClustering(assignment)
	topo, err := Build(cmap, res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func manualClustering(assignment []int) *cluster.Result {
	maxID := 0
	for _, c := range assignment {
		if c > maxID {
			maxID = c
		}
	}
	clusters := make([][]int, maxID+1)
	for node, c := range assignment {
		clusters[c] = append(clusters[c], node)
	}
	return &cluster.Result{Assignment: append([]int(nil), assignment...), Clusters: clusters}
}

// fourClusterFixture: 2 nodes each in 4 well-separated squares.
//
//	cluster 0 near (0,0); 1 near (100,0); 2 near (0,100); 3 near (100,100)
func fourClusterFixture(t *testing.T) *Topology {
	pts := []coords.Point{
		{0, 0}, {5, 0}, // cluster 0: nodes 0,1
		{100, 0}, {95, 0}, // cluster 1: nodes 2,3
		{0, 100}, {0, 95}, // cluster 2: nodes 4,5
		{100, 100}, {95, 95}, // cluster 3: nodes 6,7
	}
	return manualTopology(t, pts, []int{0, 0, 1, 1, 2, 2, 3, 3})
}

func TestBuildValidation(t *testing.T) {
	cmap, err := coords.NewMap([]coords.Point{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, err := Build(nil, manualClustering([]int{0, 0})); err == nil {
		t.Error("nil map accepted")
	}
	if _, err := Build(cmap, nil); err == nil {
		t.Error("nil clustering accepted")
	}
	if _, err := Build(cmap, manualClustering([]int{0})); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestBorderSelectionIsClosestPair(t *testing.T) {
	topo := fourClusterFixture(t)
	// Between cluster 0 {(0,0),(5,0)} and cluster 1 {(100,0),(95,0)}, the
	// closest pair is node 1 (5,0) and node 3 (95,0).
	u, v, err := topo.Border(0, 1)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	if u != 1 || v != 3 {
		t.Errorf("Border(0,1) = (%d,%d), want (1,3)", u, v)
	}
	// Orientation flips with argument order.
	v2, u2, err := topo.Border(1, 0)
	if err != nil {
		t.Fatalf("Border(1,0): %v", err)
	}
	if v2 != 3 || u2 != 1 {
		t.Errorf("Border(1,0) = (%d,%d), want (3,1)", v2, u2)
	}
}

func TestBorderSameClusterRejected(t *testing.T) {
	topo := fourClusterFixture(t)
	if _, _, err := topo.Border(1, 1); err == nil {
		t.Error("Border(1,1) succeeded")
	}
}

func TestExternalLinkLength(t *testing.T) {
	topo := fourClusterFixture(t)
	l, err := topo.ExternalLinkLength(0, 1)
	if err != nil {
		t.Fatalf("ExternalLinkLength: %v", err)
	}
	if math.Abs(l-90) > 1e-9 {
		t.Errorf("external link length = %v, want 90", l)
	}
}

func TestBorderNodeBookkeeping(t *testing.T) {
	topo := fourClusterFixture(t)
	all := topo.BorderNodes()
	if len(all) == 0 {
		t.Fatal("no border nodes recorded")
	}
	for _, b := range all {
		if !topo.IsBorder(b) {
			t.Errorf("node %d in BorderNodes() but IsBorder false", b)
		}
	}
	// Per-cluster border lists partition by cluster.
	for c := 0; c < topo.NumClusters(); c++ {
		for _, b := range topo.BorderNodesOf(c) {
			if topo.ClusterOf(b) != c {
				t.Errorf("border %d listed for cluster %d but assigned to %d", b, c, topo.ClusterOf(b))
			}
		}
	}
	// A non-border node reports false.
	if topo.IsBorder(0) && topo.IsBorder(1) && len(topo.Members(0)) == 2 {
		// Both members of cluster 0 can legitimately be borders (to
		// different clusters); just ensure IsBorder is consistent with the
		// per-cluster lists.
		t.Log("all cluster-0 members are borders (allowed)")
	}
}

func TestValidatePasses(t *testing.T) {
	topo := fourClusterFixture(t)
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOverlayHopPathIntraCluster(t *testing.T) {
	topo := fourClusterFixture(t)
	path, err := topo.OverlayHopPath(0, 1)
	if err != nil {
		t.Fatalf("OverlayHopPath: %v", err)
	}
	if len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Errorf("intra-cluster path = %v, want [0 1]", path)
	}
	self, err := topo.OverlayHopPath(2, 2)
	if err != nil {
		t.Fatalf("OverlayHopPath(2,2): %v", err)
	}
	if len(self) != 1 || self[0] != 2 {
		t.Errorf("self path = %v, want [2]", self)
	}
}

func TestOverlayHopPathInterCluster(t *testing.T) {
	topo := fourClusterFixture(t)
	// 0 (cluster 0) → 2 (cluster 1) goes via borders 1 and 3.
	path, err := topo.OverlayHopPath(0, 2)
	if err != nil {
		t.Fatalf("OverlayHopPath: %v", err)
	}
	want := []int{0, 1, 3, 2}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestOverlayHopPathBorderEndpointsNotDuplicated(t *testing.T) {
	topo := fourClusterFixture(t)
	// Node 1 is the border of cluster 0 toward cluster 1; path from 1 to 3
	// (the opposite border) is just the external link.
	path, err := topo.OverlayHopPath(1, 3)
	if err != nil {
		t.Fatalf("OverlayHopPath: %v", err)
	}
	if len(path) != 2 || path[0] != 1 || path[1] != 3 {
		t.Errorf("border-to-border path = %v, want [1 3]", path)
	}
}

func TestOverlayHopPathBoundsProperty(t *testing.T) {
	// §3: any two nodes are at most 2 overlay nodes apart — hop paths have
	// at most MaxOverlayHops hops (4 nodes).
	rng := rand.New(rand.NewSource(3))
	pts := make([]coords.Point, 60)
	assignment := make([]int, 60)
	for i := range pts {
		c := i % 5
		pts[i] = coords.Point{float64(c)*200 + rng.Float64()*10, rng.Float64() * 10}
		assignment[i] = c
	}
	topo := manualTopology(t, pts, assignment)
	check := func(a, b uint8) bool {
		u, v := int(a)%60, int(b)%60
		path, err := topo.OverlayHopPath(u, v)
		if err != nil {
			return false
		}
		return len(path) <= MaxOverlayHops+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOverlayHopPathOutOfRange(t *testing.T) {
	topo := fourClusterFixture(t)
	if _, err := topo.OverlayHopPath(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := topo.OverlayHopPath(0, 99); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestPathLength(t *testing.T) {
	topo := fourClusterFixture(t)
	if l := topo.PathLength([]int{0, 1}); math.Abs(l-5) > 1e-9 {
		t.Errorf("PathLength([0 1]) = %v, want 5", l)
	}
	if l := topo.PathLength([]int{0}); l != 0 {
		t.Errorf("PathLength single node = %v, want 0", l)
	}
	if l := topo.PathLength(nil); l != 0 {
		t.Errorf("PathLength(nil) = %v, want 0", l)
	}
}

func TestSingleClusterTopology(t *testing.T) {
	pts := []coords.Point{{0, 0}, {1, 0}, {2, 0}}
	topo := manualTopology(t, pts, []int{0, 0, 0})
	if topo.NumClusters() != 1 {
		t.Fatalf("NumClusters = %d, want 1", topo.NumClusters())
	}
	if len(topo.BorderNodes()) != 0 {
		t.Errorf("single-cluster system has border nodes: %v", topo.BorderNodes())
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	path, err := topo.OverlayHopPath(0, 2)
	if err != nil {
		t.Fatalf("OverlayHopPath: %v", err)
	}
	if len(path) != 2 {
		t.Errorf("intra path = %v", path)
	}
}

func TestViewContents(t *testing.T) {
	topo := fourClusterFixture(t)
	v, err := topo.View(4) // node 4, cluster 2
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if v.ClusterID != 2 {
		t.Errorf("ClusterID = %d, want 2", v.ClusterID)
	}
	if len(v.Members) != 2 || v.Members[0] != 4 || v.Members[1] != 5 {
		t.Errorf("Members = %v, want [4 5]", v.Members)
	}
	if v.NumClusters != 4 {
		t.Errorf("NumClusters = %d, want 4", v.NumClusters)
	}
	// Coordinates: own members + every border node; never a foreign node
	// with no border duty.
	for id, p := range v.Dense().Pts {
		if p == nil || topo.ClusterOf(id) == 2 {
			continue
		}
		if !topo.IsBorder(id) {
			t.Errorf("view holds coordinates of foreign non-border node %d", id)
		}
	}
}

// TestViewCoordinateStateIsMembersPlusBorders holds Fig. 9(a)'s quantity to
// the paper's definition: a proxy keeps coordinates for its own cluster's
// members and for every border proxy in the system, each once — nothing else.
// The arithmetic count, the explicit set and the coordinates View's table
// holds must agree, down to a single cluster and to singleton clusters.
func TestViewCoordinateStateIsMembersPlusBorders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// {n, k}: one cluster; only singletons; singletons beside pairs.
	sizes := [][2]int{{30, 1}, {7, 7}, {10, 7}}
	for trial := 0; trial < 4; trial++ {
		sizes = append(sizes, [2]int{40 + rng.Intn(60), 2 + rng.Intn(6)})
	}
	for _, nk := range sizes {
		cmap, clustering := randomClusteredInstance(rng, nk[0], nk[1])
		topo, err := Build(cmap, clustering)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for node := 0; node < topo.N(); node++ {
			want := make(map[int]bool)
			for _, m := range topo.Members(topo.ClusterOf(node)) {
				want[m] = true
			}
			for _, b := range topo.BorderNodes() {
				want[b] = true
			}
			if got := topo.CoordinateStateSize(node); got != len(want) {
				t.Fatalf("n=%d k=%d: CoordinateStateSize(%d) = %d, |members ∪ borders| = %d", nk[0], nk[1], node, got, len(want))
			}
			v, err := topo.View(node)
			if err != nil {
				t.Fatalf("View(%d): %v", node, err)
			}
			held := 0
			for id, p := range v.Dense().Pts {
				if p == nil {
					continue
				}
				held++
				if !want[id] {
					t.Fatalf("n=%d k=%d: View(%d) holds the coordinate of %d, neither a cluster member nor a border", nk[0], nk[1], node, id)
				}
			}
			if held != len(want) {
				t.Fatalf("n=%d k=%d: View(%d) holds %d coordinates, |members ∪ borders| = %d", nk[0], nk[1], node, held, len(want))
			}
		}
	}
}

// viewSink keeps the views TestViewShape measures on the heap.
var viewSink *NodeView

// TestViewShape pins what a view costs: a SharedView is the view and nothing
// else, a View's allocations do not grow with the cluster count, and the
// view itself stays small — the runtime holds one per node.
func TestViewShape(t *testing.T) {
	if size := unsafe.Sizeof(NodeView{}); size > 80 {
		t.Errorf("unsafe.Sizeof(NodeView{}) = %d B, want <= 80", size)
	}
	rng := rand.New(rand.NewSource(5))
	var viewAllocs []int
	for _, k := range []int{4, 32} {
		cmap, clustering := randomClusteredInstance(rng, 96, k)
		topo, err := Build(cmap, clustering)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if a := testing.AllocsPerRun(20, func() { viewSink, _ = topo.SharedView(3) }); a != 1 {
			t.Errorf("k=%d: SharedView allocates %v objects, want 1", k, a)
		}
		viewAllocs = append(viewAllocs, int(testing.AllocsPerRun(20, func() { viewSink, _ = topo.View(3) })))
	}
	if viewAllocs[0] != viewAllocs[1] {
		t.Errorf("View allocates %d objects at k=4 and %d at k=32, want the same", viewAllocs[0], viewAllocs[1])
	}
}

func TestViewOutOfRange(t *testing.T) {
	topo := fourClusterFixture(t)
	if _, err := topo.View(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := topo.View(8); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestViewDistRefusesUnknownNodes(t *testing.T) {
	topo := fourClusterFixture(t)
	v, err := topo.View(0) // cluster 0
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	// Find a foreign non-border node: in cluster 3 one of {6,7} may be
	// non-border; search for any node the view lacks.
	var unknown = -1
	for id := 0; id < topo.N(); id++ {
		if v.Dense().Pts[id] == nil {
			unknown = id
			break
		}
	}
	if unknown == -1 {
		t.Skip("tiny fixture: every node is a border node")
	}
	if _, err := v.Dist(0, unknown); err == nil {
		t.Errorf("view computed distance to unknown node %d", unknown)
	}
	if _, err := v.Dist(unknown, 0); err == nil {
		t.Errorf("view computed distance from unknown node %d", unknown)
	}
}

func TestViewDistMatchesTopologyDist(t *testing.T) {
	topo := fourClusterFixture(t)
	v, err := topo.View(0)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	d, err := v.Dist(0, 1)
	if err != nil {
		t.Fatalf("view Dist: %v", err)
	}
	if d != topo.Dist(0, 1) {
		t.Errorf("view Dist = %v, topology Dist = %v", d, topo.Dist(0, 1))
	}
}

func TestViewBorderOrientation(t *testing.T) {
	topo := fourClusterFixture(t)
	v, err := topo.View(0)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	u1, v1, err := v.Border(0, 1)
	if err != nil {
		t.Fatalf("view Border: %v", err)
	}
	tu, tv, err := topo.Border(0, 1)
	if err != nil {
		t.Fatalf("topo Border: %v", err)
	}
	if u1 != tu || v1 != tv {
		t.Errorf("view Border = (%d,%d), topology = (%d,%d)", u1, v1, tu, tv)
	}
	if _, _, err := v.Border(2, 2); err == nil {
		t.Error("view Border(2,2) succeeded")
	}
}

func TestWriteDOT(t *testing.T) {
	topo := fourClusterFixture(t)
	var buf strings.Builder
	if err := topo.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"graph hfc", "subgraph cluster_0", "subgraph cluster_3", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Every node appears.
	for n := 0; n < topo.N(); n++ {
		if !strings.Contains(out, fmt.Sprintf("n%d [", n)) {
			t.Errorf("DOT output missing node %d", n)
		}
	}
	var nilTopo *Topology
	if err := nilTopo.WriteDOT(&buf); err == nil {
		t.Error("nil topology accepted")
	}
	// Writer failures propagate.
	if err := topo.WriteDOT(failWriter{}); err == nil {
		t.Error("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("sink failed")
