package experiments

import (
	"math"
	"strings"
	"testing"

	"hfc/internal/env"
	"hfc/internal/mlhfc"
	"hfc/internal/stats"
)

// smallSpecs returns two reduced environments so the experiment plumbing
// runs in test time; the full Table 1 runs live in cmd/experiments and the
// benchmarks.
func smallSpecs() []env.Spec {
	a := env.SmallSpec(101)
	a.Proxies = 40
	b := env.SmallSpec(202)
	b.Proxies = 130
	b.PhysicalNodes = 600
	return []env.Spec{a, b}
}

func TestRunFig9ShapeAndScaling(t *testing.T) {
	rows, err := RunFig9(smallSpecs(), 2)
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if int(r.FlatCoordStates) != r.Proxies {
			t.Errorf("flat coord states = %v, want %d", r.FlatCoordStates, r.Proxies)
		}
		if int(r.FlatServiceStates) != r.Proxies {
			t.Errorf("flat service states = %v, want %d", r.FlatServiceStates, r.Proxies)
		}
		// The headline claim: hierarchical state is strictly smaller than
		// flat at every size.
		if r.HFCCoordStates >= r.FlatCoordStates {
			t.Errorf("size %d: HFC coord states %v not below flat %v", r.Proxies, r.HFCCoordStates, r.FlatCoordStates)
		}
		if r.HFCServiceStates >= r.FlatServiceStates {
			t.Errorf("size %d: HFC service states %v not below flat %v", r.Proxies, r.HFCServiceStates, r.FlatServiceStates)
		}
		if r.Clusters < 2 {
			t.Errorf("size %d: %v clusters", r.Proxies, r.Clusters)
		}
	}
	// Flat grows linearly with constant one; hierarchical grows much
	// slower. Check the growth-rate ordering between the two sizes.
	flatGrowth := rows[1].FlatCoordStates - rows[0].FlatCoordStates
	hfcGrowth := rows[1].HFCCoordStates - rows[0].HFCCoordStates
	if hfcGrowth >= flatGrowth {
		t.Errorf("hierarchical coord growth %v not below flat growth %v", hfcGrowth, flatGrowth)
	}
	if out := FormatFig9a(rows); !strings.Contains(out, "Figure 9(a)") {
		t.Error("FormatFig9a missing header")
	}
	if out := FormatFig9b(rows); !strings.Contains(out, "Figure 9(b)") {
		t.Error("FormatFig9b missing header")
	}
}

// TestFig9aMatchesEntitlement pins Fig. 9(a) to the quantity the paper plots:
// a proxy's coordinate state is its own cluster's members plus every border
// proxy in the system, each counted once — recomputed here from the topology,
// without a view. The tri-level column is held to the analogous sets one tier
// up: own inner cluster, the borders of the own group's interior, and every
// super-border.
func TestFig9aMatchesEntitlement(t *testing.T) {
	spec := env.SmallSpec(311)
	e, err := env.Build(spec)
	if err != nil {
		t.Fatalf("env.Build: %v", err)
	}
	topo := e.Framework.Topology()
	union := func(sets ...[]int) int {
		seen := make(map[int]bool)
		for _, set := range sets {
			for _, n := range set {
				seen[n] = true
			}
		}
		return len(seen)
	}
	var want []float64
	for node := 0; node < topo.N(); node++ {
		want = append(want, float64(union(topo.Members(topo.ClusterOf(node)), topo.BorderNodes())))
	}
	rows, err := RunFig9([]env.Spec{spec}, 1)
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	if got := rows[0].HFCCoordStates; math.Abs(got-stats.Mean(want)) > 1e-9 {
		t.Errorf("Fig. 9(a) hierarchical = %v, mean |members ∪ borders| = %v", got, stats.Mean(want))
	}

	ml, err := RunMultiLevel([]env.Spec{spec}, 1)
	if err != nil {
		t.Fatalf("RunMultiLevel: %v", err)
	}
	if got := ml[0].BiCoordStates; math.Abs(got-stats.Mean(want)) > 1e-9 {
		t.Errorf("multilevel bi coord = %v, mean |members ∪ borders| = %v", got, stats.Mean(want))
	}
	cfg := mlhfc.DefaultConfig()
	cfg.TargetGroups = int(math.Round(math.Sqrt(float64(topo.NumClusters()))))
	tri, err := mlhfc.Build(topo.Coords(), cfg)
	if err != nil {
		t.Fatalf("mlhfc.Build: %v", err)
	}
	if tri.NumGroups() != ml[0].Groups || tri.NumGroups() < 2 {
		t.Fatalf("rebuilt %d groups, the row reports %d; want the same, and a real third tier", tri.NumGroups(), ml[0].Groups)
	}
	var super []int
	for a := 0; a < tri.NumGroups(); a++ {
		for b := a + 1; b < tri.NumGroups(); b++ {
			inA, inB, err := tri.SuperBorder(a, b)
			if err != nil {
				t.Fatalf("SuperBorder(%d,%d): %v", a, b, err)
			}
			super = append(super, inA, inB)
		}
	}
	var wantTri []float64
	for node := 0; node < tri.N(); node++ {
		g := tri.GroupOf(node)
		interior := tri.Interior(g)
		var own []int
		for _, local := range interior.Members(interior.ClusterOf(tri.ToLocal(node))) {
			own = append(own, tri.ToGlobal(g, local))
		}
		for _, local := range interior.BorderNodes() {
			own = append(own, tri.ToGlobal(g, local))
		}
		wantTri = append(wantTri, float64(union(own, super)))
	}
	if got := ml[0].TriCoordStates; math.Abs(got-stats.Mean(wantTri)) > 1e-9 {
		t.Errorf("multilevel tri coord = %v, mean |inner members ∪ interior borders ∪ super-borders| = %v", got, stats.Mean(wantTri))
	}
}

func TestRunFig9Validation(t *testing.T) {
	if _, err := RunFig9(smallSpecs(), 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRunFig10ShapeAndOrdering(t *testing.T) {
	rows, err := RunFig10(smallSpecs()[:1], 2, 30)
	if err != nil {
		t.Fatalf("RunFig10: %v", err)
	}
	r := rows[0]
	if r.MeshAvg <= 0 || r.HFCAggAvg <= 0 || r.HFCFullAvg <= 0 {
		t.Fatalf("non-positive path lengths: %+v", r)
	}
	// HFC without aggregation has strictly more information than
	// hierarchical HFC and the same topology constraint, so on average it
	// must not lose (up to sampling noise; same request stream).
	if r.HFCFullAvg > r.HFCAggAvg*1.05 {
		t.Errorf("HFC w/o aggregation (%v) worse than with aggregation (%v)", r.HFCFullAvg, r.HFCAggAvg)
	}
	// The paper's headline: HFC with aggregation is comparable to mesh
	// (actually slightly better). Allow generous slack for a small sample.
	if r.HFCAggAvg > r.MeshAvg*1.3 {
		t.Errorf("HFC w/ aggregation (%v) far worse than mesh (%v)", r.HFCAggAvg, r.MeshAvg)
	}
	// Mesh paths need relays; HFC paths cross at most two border relays
	// per inter-cluster hop.
	if r.MeshRelays <= 0 {
		t.Errorf("mesh relays = %v, expected some relaying", r.MeshRelays)
	}
	if out := FormatFig10(rows); !strings.Contains(out, "Figure 10") {
		t.Error("FormatFig10 missing header")
	}
}

func TestRunFig10Validation(t *testing.T) {
	if _, err := RunFig10(smallSpecs(), 0, 5); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RunFig10(smallSpecs(), 1, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1(env.Table1(1))
	if !strings.Contains(out, "1200") || !strings.Contains(out, "1000") {
		t.Errorf("Table 1 output missing rows:\n%s", out)
	}
}

func TestRunAblationK(t *testing.T) {
	spec := env.SmallSpec(301)
	rows, err := RunAblationK(spec, []float64{2, 4}, 10)
	if err != nil {
		t.Fatalf("RunAblationK: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Higher k merges more: cluster count non-increasing.
	if rows[1].Clusters > rows[0].Clusters {
		t.Errorf("clusters grew with k: %v -> %v", rows[0].Clusters, rows[1].Clusters)
	}
	if !strings.Contains(FormatAblationK(rows), "A1") {
		t.Error("FormatAblationK missing header")
	}
	if _, err := RunAblationK(spec, nil, 10); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunAblationK(spec, []float64{2}, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestRunAblationDim(t *testing.T) {
	spec := env.SmallSpec(303)
	rows, err := RunAblationDim(spec, []int{2, 3}, 8, 100)
	if err != nil {
		t.Fatalf("RunAblationDim: %v", err)
	}
	for _, r := range rows {
		if r.MedianRelError <= 0 || r.MedianRelError > 1.5 {
			t.Errorf("dim %d: implausible median error %v", r.Dim, r.MedianRelError)
		}
	}
	if !strings.Contains(FormatAblationDim(rows), "A2") {
		t.Error("FormatAblationDim missing header")
	}
	if _, err := RunAblationDim(spec, nil, 8, 100); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestRunAblationRelax(t *testing.T) {
	spec := env.SmallSpec(305)
	rows, err := RunAblationRelax(spec, 25)
	if err != nil {
		t.Fatalf("RunAblationRelax: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	var backtrack, exact float64
	for _, r := range rows {
		switch r.Mode.String() {
		case "backtrack":
			backtrack = r.CSPCostAvg
		case "exact":
			exact = r.CSPCostAvg
		}
	}
	if exact > backtrack+1e-9 {
		t.Errorf("exact CSP cost %v above backtrack %v", exact, backtrack)
	}
	if !strings.Contains(FormatAblationRelax(rows), "A3") {
		t.Error("FormatAblationRelax missing header")
	}
	if _, err := RunAblationRelax(spec, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestRunAblationBorder(t *testing.T) {
	spec := env.SmallSpec(307)
	rows, err := RunAblationBorder(spec, 20)
	if err != nil {
		t.Fatalf("RunAblationBorder: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byName := map[string]AblationBorderRow{}
	for _, r := range rows {
		byName[r.Selector] = r
	}
	head := byName["cluster-head"]
	closest := byName["closest-pair"]
	// A cluster head serves every pair its cluster participates in, so its
	// max load must be at least the closest-pair rule's.
	if head.MaxPairsPerBorder < closest.MaxPairsPerBorder {
		t.Errorf("cluster-head max load %v below closest-pair %v", head.MaxPairsPerBorder, closest.MaxPairsPerBorder)
	}
	// Closest-pair should route no worse than random on average.
	random := byName["random-pair"]
	if closest.HierPathAvg > random.HierPathAvg*1.15 {
		t.Errorf("closest-pair paths (%v) much worse than random (%v)", closest.HierPathAvg, random.HierPathAvg)
	}
	if !strings.Contains(FormatAblationBorder(rows), "A4") {
		t.Error("FormatAblationBorder missing header")
	}
	if _, err := RunAblationBorder(spec, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestRunAblationChurn(t *testing.T) {
	rows, err := RunAblationChurn(11, 60, []int{0, 20, 60})
	if err != nil {
		t.Fatalf("RunAblationChurn: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.Contains(FormatAblationChurn(rows), "A6") {
		t.Error("FormatAblationChurn missing header")
	}
	if _, err := RunAblationChurn(1, 5, []int{1}); err == nil {
		t.Error("tiny base accepted")
	}
	if _, err := RunAblationChurn(1, 60, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestRunMessageOverhead(t *testing.T) {
	rows, err := RunMessageOverhead(smallSpecs()[:1])
	if err != nil {
		t.Fatalf("RunMessageOverhead: %v", err)
	}
	r := rows[0]
	if r.HFCMessages != r.HFCLocal+r.HFCAggregate+r.HFCForwarding {
		t.Errorf("message totals inconsistent: %+v", r)
	}
	if r.HFCMessages >= r.FlatMessages {
		t.Errorf("HFC traffic %d not below flat flooding %d", r.HFCMessages, r.FlatMessages)
	}
	if !strings.Contains(FormatMessageOverhead(rows), "traffic") {
		t.Error("FormatMessageOverhead missing header")
	}
}
