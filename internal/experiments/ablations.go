package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/env"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/stats"
	"hfc/internal/svc"
)

// AblationKRow is one inconsistency-factor setting (A1).
type AblationKRow struct {
	K              float64
	Clusters       float64
	CoordStates    float64
	ServiceStates  float64
	HierPathAvg    float64
	MaxClusterFrac float64
}

// RunAblationK sweeps the MST inconsistency factor k on one environment
// spec and reports how cluster granularity trades state size against path
// quality.
func RunAblationK(spec env.Spec, ks []float64, requests int) ([]AblationKRow, error) {
	if len(ks) == 0 {
		return nil, errors.New("experiments: empty k sweep")
	}
	if requests < 1 {
		return nil, errors.New("experiments: need at least 1 request")
	}
	rows := make([]AblationKRow, 0, len(ks))
	for _, k := range ks {
		s := spec
		s.InconsistencyK = k
		e, err := env.Build(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation-k k=%v: %w", k, err)
		}
		topo := e.Framework.Topology()
		states := e.Framework.States()
		var coordStates, svcStates []float64
		for node := 0; node < topo.N(); node++ {
			coordStates = append(coordStates, float64(topo.CoordinateStateSize(node)))
			svcStates = append(svcStates, float64(states[node].ServiceStateSize()))
		}
		var lengths []float64
		for i := 0; i < requests; i++ {
			req, err := e.NextRequest()
			if err != nil {
				return nil, err
			}
			p, err := e.Framework.Route(req)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, p.Length(e.TrueDist))
		}
		quality := cluster.Evaluate(topo.Clustering(), topo.Coords().Dist)
		rows = append(rows, AblationKRow{
			K:              k,
			Clusters:       float64(topo.NumClusters()),
			CoordStates:    stats.Mean(coordStates),
			ServiceStates:  stats.Mean(svcStates),
			HierPathAvg:    stats.Mean(lengths),
			MaxClusterFrac: quality.MaxClusterFraction,
		})
	}
	return rows, nil
}

// FormatAblationK renders the A1 table.
func FormatAblationK(rows []AblationKRow) string {
	out := "Ablation A1: MST inconsistency factor k\n"
	out += fmt.Sprintf("%-6s %10s %13s %13s %14s %14s\n",
		"k", "clusters", "coord-states", "svc-states", "hier path avg", "max frac")
	for _, r := range rows {
		out += fmt.Sprintf("%-6.1f %10.1f %13.1f %13.1f %14.1f %14.2f\n",
			r.K, r.Clusters, r.CoordStates, r.ServiceStates, r.HierPathAvg, r.MaxClusterFrac)
	}
	return out
}

// AblationDimRow is one embedding dimension (A2, the paper's §6.1 future
// work: distance-map precision vs coordinate dimension).
type AblationDimRow struct {
	Dim            int
	MedianRelError float64
	P90RelError    float64
	Clusters       float64
	HierPathAvg    float64
}

// RunAblationDim sweeps the coordinate-space dimension.
func RunAblationDim(spec env.Spec, dims []int, requests, errSamples int) ([]AblationDimRow, error) {
	if len(dims) == 0 {
		return nil, errors.New("experiments: empty dimension sweep")
	}
	rows := make([]AblationDimRow, 0, len(dims))
	for _, dim := range dims {
		s := spec
		s.CoordDim = dim
		e, err := env.Build(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation-dim dim=%d: %w", dim, err)
		}
		errs, err := e.EmbeddingError(errSamples)
		if err != nil {
			return nil, err
		}
		var lengths []float64
		for i := 0; i < requests; i++ {
			req, err := e.NextRequest()
			if err != nil {
				return nil, err
			}
			p, err := e.Framework.Route(req)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, p.Length(e.TrueDist))
		}
		rows = append(rows, AblationDimRow{
			Dim:            dim,
			MedianRelError: stats.Median(errs),
			P90RelError:    stats.Percentile(errs, 90),
			Clusters:       float64(e.Framework.NumClusters()),
			HierPathAvg:    stats.Mean(lengths),
		})
	}
	return rows, nil
}

// FormatAblationDim renders the A2 table.
func FormatAblationDim(rows []AblationDimRow) string {
	out := "Ablation A2: coordinate-space dimension (embedding precision)\n"
	out += fmt.Sprintf("%-6s %14s %14s %10s %14s\n", "dim", "median relerr", "p90 relerr", "clusters", "hier path avg")
	for _, r := range rows {
		out += fmt.Sprintf("%-6d %14.3f %14.3f %10.1f %14.1f\n",
			r.Dim, r.MedianRelError, r.P90RelError, r.Clusters, r.HierPathAvg)
	}
	return out
}

// AblationRelaxRow is one cluster-level relaxation mode (A3).
type AblationRelaxRow struct {
	Mode        routing.RelaxMode
	HierPathAvg float64
	CSPCostAvg  float64
}

// RunAblationRelax routes the same request stream under each relaxation
// mode of §5.1 step 2.
func RunAblationRelax(spec env.Spec, requests int) ([]AblationRelaxRow, error) {
	if requests < 1 {
		return nil, errors.New("experiments: need at least 1 request")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation-relax: %w", err)
	}
	reqs := make([]svc.Request, requests)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	modes := []routing.RelaxMode{routing.RelaxBacktrack, routing.RelaxExact, routing.RelaxExternalOnly}
	rows := make([]AblationRelaxRow, 0, len(modes))
	fw := e.Framework
	for _, mode := range modes {
		eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{Relax: mode})
		if err != nil {
			return nil, err
		}
		var lengths, costs []float64
		for _, req := range reqs {
			res, err := eng.ResolveDetailed(req)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, res.Path.Length(e.TrueDist))
			costs = append(costs, res.CSPCost)
		}
		rows = append(rows, AblationRelaxRow{
			Mode:        mode,
			HierPathAvg: stats.Mean(lengths),
			CSPCostAvg:  stats.Mean(costs),
		})
	}
	return rows, nil
}

// FormatAblationRelax renders the A3 table.
func FormatAblationRelax(rows []AblationRelaxRow) string {
	out := "Ablation A3: cluster-level relaxation mode\n"
	out += fmt.Sprintf("%-15s %16s %14s\n", "mode", "hier path avg", "CSP cost avg")
	for _, r := range rows {
		out += fmt.Sprintf("%-15s %16.1f %14.1f\n", r.Mode, r.HierPathAvg, r.CSPCostAvg)
	}
	return out
}

// AblationBorderRow is one border-selection rule (A4/A5).
type AblationBorderRow struct {
	Selector string
	// HierPathAvg is the mean hierarchical path length (true delay).
	HierPathAvg float64
	// UniqueBorders is the number of distinct border proxies; the paper
	// argues the closest-pair rule spreads border duty across nodes.
	UniqueBorders float64
	// MaxPairsPerBorder is the largest number of cluster pairs any single
	// proxy serves as border for (1.0 per pair side); lower is better
	// balanced.
	MaxPairsPerBorder float64
}

// RunAblationBorder rebuilds the environment's HFC topology under each
// border-selection rule, re-converges state, and routes the same request
// stream: A4 (closest vs random pair) and A5 (single-logical-node heads).
func RunAblationBorder(spec env.Spec, requests int) ([]AblationBorderRow, error) {
	if requests < 1 {
		return nil, errors.New("experiments: need at least 1 request")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation-border: %w", err)
	}
	reqs := make([]svc.Request, requests)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	cmap := e.Framework.Topology().Coords()
	clustering := e.Framework.Topology().Clustering()
	caps := e.Framework.Capabilities()
	selectors := []struct {
		name string
		sel  hfc.BorderSelector
	}{
		{"closest-pair", hfc.ClosestPairSelector()},
		{"random-pair", hfc.RandomPairSelector(rand.New(rand.NewSource(spec.Seed + 1)))},
		{"cluster-head", hfc.HeadSelector()},
	}
	rows := make([]AblationBorderRow, 0, len(selectors))
	for _, s := range selectors {
		topo, err := hfc.BuildWithSelector(cmap, clustering, s.sel)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation-border %s: %w", s.name, err)
		}
		states, _, err := state.Distribute(topo, caps)
		if err != nil {
			return nil, err
		}
		eng, err := serve.NewEngine(topo, caps, states, serve.Config{})
		if err != nil {
			return nil, err
		}
		var lengths []float64
		for _, req := range reqs {
			p, err := eng.Resolve(req)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, p.Length(e.TrueDist))
		}
		// Border load: cluster pairs served per border node.
		load := make(map[int]int)
		k := topo.NumClusters()
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if a == b {
					continue
				}
				inA, _, err := topo.Border(a, b)
				if err != nil {
					return nil, err
				}
				load[inA]++
			}
		}
		maxLoad := 0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		rows = append(rows, AblationBorderRow{
			Selector:          s.name,
			HierPathAvg:       stats.Mean(lengths),
			UniqueBorders:     float64(len(topo.BorderNodes())),
			MaxPairsPerBorder: float64(maxLoad),
		})
	}
	return rows, nil
}

// FormatAblationBorder renders the A4/A5 table.
func FormatAblationBorder(rows []AblationBorderRow) string {
	out := "Ablations A4/A5: border-selection rule (incl. single-logical-node heads)\n"
	out += fmt.Sprintf("%-14s %16s %15s %20s\n", "selector", "hier path avg", "unique borders", "max pairs/border")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %16.1f %15.1f %20.1f\n",
			r.Selector, r.HierPathAvg, r.UniqueBorders, r.MaxPairsPerBorder)
	}
	return out
}

// AblationChurnRow is one churn level (A6, the paper's §7 future work:
// joins deteriorate clustering quality; some re-structuring is needed).
type AblationChurnRow struct {
	// Joins is the number of proxies added after the initial clustering.
	Joins int
	// JoinNearestSeparation is the cluster-quality separation (inter/intra
	// distance ratio) after joining each node to its nearest neighbour's
	// cluster.
	JoinNearestSeparation float64
	// ReclusterSeparation is the separation after re-running the full MST
	// clustering on the grown node set.
	ReclusterSeparation float64
	// JoinNearestClusters and ReclusterClusters are the cluster counts.
	JoinNearestClusters, ReclusterClusters int
}

// RunAblationChurn grows a clustered coordinate set by randomly placed
// joiners (each lands near a random existing node, modelling a new proxy in
// some stub domain) and compares the paper's join-nearest heuristic with
// full re-clustering.
func RunAblationChurn(seed int64, baseNodes int, joinLevels []int) ([]AblationChurnRow, error) {
	if baseNodes < 10 {
		return nil, errors.New("experiments: need at least 10 base nodes")
	}
	if len(joinLevels) == 0 {
		return nil, errors.New("experiments: empty join sweep")
	}
	rng := rand.New(rand.NewSource(seed))
	// Base set: clusterable blobs.
	nBlobs := 5
	var pts []coords.Point
	for len(pts) < baseNodes {
		b := len(pts) % nBlobs
		cx := float64(b%3) * 300
		cy := float64(b/3) * 300
		pts = append(pts, coords.Point{cx + rng.Float64()*40, cy + rng.Float64()*40})
	}
	rows := make([]AblationChurnRow, 0, len(joinLevels))
	for _, joins := range joinLevels {
		grown := append([]coords.Point(nil), pts...)
		for j := 0; j < joins; j++ {
			anchor := grown[rng.Intn(len(grown))]
			grown = append(grown, coords.Point{
				anchor[0] + rng.NormFloat64()*25,
				anchor[1] + rng.NormFloat64()*25,
			})
		}
		gmap, err := coords.NewMap(grown)
		if err != nil {
			return nil, err
		}
		// Baseline clustering on the original nodes.
		base, err := cluster.Cluster(baseNodes, func(i, j int) float64 {
			return coords.Dist(pts[i], pts[j])
		}, cluster.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// Join-nearest: each newcomer adopts the cluster of its nearest
		// pre-existing node (the paper's suggested heuristic).
		assignment := append([]int(nil), base.Assignment...)
		for idx := baseNodes; idx < len(grown); idx++ {
			best, bestD := 0, gmap.Dist(idx, 0)
			for other := 1; other < idx; other++ {
				if d := gmap.Dist(idx, other); d < bestD {
					best, bestD = other, d
				}
			}
			assignment = append(assignment, assignment[best])
		}
		joined := clusteringFromAssignment(assignment)
		// Full re-clustering on the grown set.
		reclustered, err := cluster.Cluster(len(grown), gmap.Dist, cluster.DefaultConfig())
		if err != nil {
			return nil, err
		}
		qJoin := cluster.Evaluate(joined, gmap.Dist)
		qRe := cluster.Evaluate(reclustered, gmap.Dist)
		rows = append(rows, AblationChurnRow{
			Joins:                 joins,
			JoinNearestSeparation: qJoin.Separation,
			ReclusterSeparation:   qRe.Separation,
			JoinNearestClusters:   qJoin.NumClusters,
			ReclusterClusters:     qRe.NumClusters,
		})
	}
	return rows, nil
}

// clusteringFromAssignment builds a cluster.Result from an assignment
// vector (renumbering cluster IDs densely).
func clusteringFromAssignment(assignment []int) *cluster.Result {
	remap := make(map[int]int)
	var clusters [][]int
	dense := make([]int, len(assignment))
	for node, c := range assignment {
		id, ok := remap[c]
		if !ok {
			id = len(clusters)
			remap[c] = id
			clusters = append(clusters, nil)
		}
		dense[node] = id
		clusters[id] = append(clusters[id], node)
	}
	return &cluster.Result{Assignment: dense, Clusters: clusters}
}

// FormatAblationChurn renders the A6 table.
func FormatAblationChurn(rows []AblationChurnRow) string {
	out := "Ablation A6: dynamic membership — join-nearest vs full re-clustering\n"
	out += fmt.Sprintf("%-8s %22s %20s %14s %12s\n",
		"joins", "join-nearest separ.", "recluster separ.", "join clusters", "re clusters")
	for _, r := range rows {
		out += fmt.Sprintf("%-8d %22.2f %20.2f %14d %12d\n",
			r.Joins, r.JoinNearestSeparation, r.ReclusterSeparation,
			r.JoinNearestClusters, r.ReclusterClusters)
	}
	return out
}

// MessageOverheadRow compares state-distribution traffic (an extra
// measurement the paper motivates but does not plot).
type MessageOverheadRow struct {
	Proxies       int
	FlatMessages  int
	HFCMessages   int
	HFCLocal      int
	HFCAggregate  int
	HFCForwarding int
}

// RunMessageOverhead measures one state-distribution round's traffic under
// HFC against the flat all-to-all flooding baseline (n(n-1) messages).
func RunMessageOverhead(specs []env.Spec) ([]MessageOverheadRow, error) {
	rows := make([]MessageOverheadRow, 0, len(specs))
	for _, spec := range specs {
		e, err := env.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: message overhead: %w", err)
		}
		m := e.Framework.StateMessageStats()
		rows = append(rows, MessageOverheadRow{
			Proxies:       spec.Proxies,
			FlatMessages:  spec.Proxies * (spec.Proxies - 1),
			HFCMessages:   m.Total(),
			HFCLocal:      m.LocalMessages,
			HFCAggregate:  m.AggregateMessages,
			HFCForwarding: m.ForwardMessages,
		})
	}
	return rows, nil
}

// FormatMessageOverhead renders the traffic table.
func FormatMessageOverhead(rows []MessageOverheadRow) string {
	out := "State-distribution traffic per round (messages)\n"
	out += fmt.Sprintf("%-10s %14s %12s %10s %10s %10s\n",
		"proxies", "flat n(n-1)", "HFC total", "local", "aggregate", "forward")
	for _, r := range rows {
		out += fmt.Sprintf("%-10d %14d %12d %10d %10d %10d\n",
			r.Proxies, r.FlatMessages, r.HFCMessages, r.HFCLocal, r.HFCAggregate, r.HFCForwarding)
	}
	return out
}
