// Package cluster detects proximity clusters in a point set with Zahn's
// minimum-spanning-tree method ("Graph-Theoretical Methods for Detecting and
// Describing Gestalt Clusters", IEEE ToC 1971), which the paper adopts in
// §3.2: build the MST of the overlay nodes in the embedded coordinate space,
// flag edges that are significantly longer than their neighbourhood average
// as inconsistent, and remove them; the surviving connected components are
// the clusters.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hfc/internal/coords"
	"hfc/internal/geo"
	"hfc/internal/graph"
)

// Criterion selects how an edge's neighbourhood average b is computed when
// testing inconsistency a/b > k (a = edge length). The paper's wording
// ("the left and right sub-trees connected by l, whose average length of
// links is denoted by b") corresponds to CriterionCombined; the variants are
// kept for the ablation study.
type Criterion int

// Inconsistency criteria. Enums start at one so the zero value is invalid.
const (
	// CriterionCombined averages nearby edges from both subtrees together.
	CriterionCombined Criterion = iota + 1
	// CriterionBothSides requires a > k·avg on each side independently
	// (Zahn's conservative variant: both neighbourhoods must find the edge
	// long).
	CriterionBothSides
	// CriterionMaxSide requires a > k·max(avgLeft, avgRight).
	CriterionMaxSide
	// CriterionGlobalMedian requires a > k·median(all MST edge lengths).
	// Local neighbourhood averages break down on very small point sets
	// (a long edge dominates its own neighbourhood); the global median is
	// robust there, and is the criterion the multi-level construction
	// uses when clustering cluster centroids.
	CriterionGlobalMedian
)

// String returns a short label for the criterion.
func (c Criterion) String() string {
	switch c {
	case CriterionCombined:
		return "combined"
	case CriterionBothSides:
		return "both-sides"
	case CriterionMaxSide:
		return "max-side"
	case CriterionGlobalMedian:
		return "global-median"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Config parameterizes clustering.
type Config struct {
	// InconsistencyFactor is the paper's k: an edge of length a with
	// neighbourhood average b is inconsistent when a/b > k. The paper
	// suggests "a selected number, e.g., 2, 3, ..." (§3.2); we default to 3,
	// which on sampled point sets avoids the over-segmentation that k=2
	// suffers from natural MST edge-length variance.
	InconsistencyFactor float64
	// NeighborhoodDepth is how many hops into each subtree count as
	// "nearby" when averaging edge lengths. Default 3.
	NeighborhoodDepth int
	// Criterion selects the neighbourhood-average variant. Default
	// CriterionCombined.
	Criterion Criterion
	// MinClusterSize, when > 1, merges any smaller detected cluster into
	// the cluster containing its nearest outside node. The paper leaves
	// degenerate clusters untreated; this knob exists for the robustness
	// ablation and defaults to 1 (disabled).
	MinClusterSize int
	// Points, when set, are the embedded coordinates behind dist, aligned
	// by node index: dist(i, j) must equal coords.Dist(Points[i],
	// Points[j]). Supplying them enables the sub-quadratic geometric
	// engine (internal/geo) for the MST and small-cluster merging; the
	// result is identical to the brute-force scans either way.
	Points []coords.Point
	// Index selects the geometric engine strategy. The zero value
	// (geo.Auto) uses the k-d engine when Points are present, finite, and
	// the node set is large enough to amortize tree construction, falling
	// back to the O(n²) scans otherwise (below 512 nodes); geo.Brute forces
	// the scans, the reference geo_equiv_test.go and BenchmarkZahnClusterBrute
	// hold the engine to; an explicit geo.KDTree requires Points.
	Index geo.Strategy
}

// indexAutoMinN is the node count at which geo.Auto switches Cluster onto
// the geometric engine; below it the dense Prim scan is at least as fast.
const indexAutoMinN = 512

// DefaultConfig returns the configuration used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		InconsistencyFactor: 3,
		NeighborhoodDepth:   3,
		Criterion:           CriterionCombined,
		MinClusterSize:      1,
	}
}

func (c Config) withDefaults() Config {
	if c.InconsistencyFactor == 0 {
		c.InconsistencyFactor = 3
	}
	if c.NeighborhoodDepth == 0 {
		c.NeighborhoodDepth = 3
	}
	if c.Criterion == 0 {
		c.Criterion = CriterionCombined
	}
	if c.MinClusterSize == 0 {
		c.MinClusterSize = 1
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.InconsistencyFactor <= 1:
		return fmt.Errorf("cluster: inconsistency factor %v must be > 1", c.InconsistencyFactor)
	case c.NeighborhoodDepth < 1:
		return fmt.Errorf("cluster: neighbourhood depth %d must be >= 1", c.NeighborhoodDepth)
	case c.MinClusterSize < 1:
		return fmt.Errorf("cluster: min cluster size %d must be >= 1", c.MinClusterSize)
	}
	switch c.Criterion {
	case CriterionCombined, CriterionBothSides, CriterionMaxSide, CriterionGlobalMedian:
	default:
		return fmt.Errorf("cluster: unknown criterion %d", int(c.Criterion))
	}
	return nil
}

// Result describes a clustering.
type Result struct {
	// Assignment maps node index → cluster ID in [0, len(Clusters)).
	// Cluster IDs are assigned in order of each cluster's smallest member,
	// so results are deterministic.
	Assignment []int
	// Clusters lists each cluster's members in increasing node order.
	Clusters [][]int
	// MSTEdges is the spanning tree the detection ran on.
	MSTEdges []graph.Edge
	// RemovedEdges are the inconsistent edges whose removal produced the
	// clusters.
	RemovedEdges []graph.Edge
}

// NumClusters returns the number of detected clusters.
func (r *Result) NumClusters() int { return len(r.Clusters) }

// Cluster runs the full §3.2 procedure on n nodes whose pairwise distances
// are given by dist (symmetric, non-negative): build the MST of the complete
// graph, remove inconsistent edges, and return the resulting components.
func Cluster(n int, dist func(i, j int) float64, cfg Config) (*Result, error) {
	if n <= 0 {
		return nil, errors.New("cluster: empty node set")
	}
	if dist == nil {
		return nil, errors.New("cluster: nil distance function")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	useGeo, err := cfg.useGeoEngine(n)
	if err != nil {
		return nil, err
	}

	// Both paths yield the unique MST under the (weight, lo, hi) tuple
	// order, canonicalized so geo-backed and brute-force runs DeepEqual.
	var mst []graph.Edge
	if useGeo {
		mst, err = geo.MST(cfg.Points, cfg.Index)
	} else {
		mst, err = graph.EuclideanMST(n, dist)
		graph.CanonicalizeEdges(mst)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: building mst: %w", err)
	}

	removed := inconsistentEdges(n, mst, cfg)

	// Components of the MST minus the removed edges.
	removedSet := make(map[[2]int]bool, len(removed))
	for _, e := range removed {
		removedSet[edgeKey(e)] = true
	}
	uf := graph.NewUnionFind(n)
	for _, e := range mst {
		if !removedSet[edgeKey(e)] {
			uf.Union(e.From, e.To)
		}
	}
	res := &Result{MSTEdges: mst, RemovedEdges: removed}
	res.Assignment, res.Clusters = componentsToClusters(n, uf)

	if cfg.MinClusterSize > 1 {
		// The merge rounds reuse one index over the full (static) node
		// set: cluster membership changes between rounds, but the node
		// set does not, so per-round skip filters are enough.
		var idx geo.Index
		if useGeo {
			idx, err = geo.NewIndex(cfg.Points, nil, cfg.Index)
			if err != nil {
				return nil, fmt.Errorf("cluster: merge index: %w", err)
			}
		}
		mergeSmallClusters(res, dist, cfg.MinClusterSize, cfg.Points, idx)
	}
	return res, nil
}

// useGeoEngine decides whether Cluster runs on the geometric engine.
// Explicit indexed strategies require Points; geo.Auto silently falls back
// to the brute scans when Points are absent, non-finite, or the node set
// is too small to benefit.
func (c Config) useGeoEngine(n int) (bool, error) {
	switch {
	case c.Index == geo.Brute:
		return false, nil
	case c.Points == nil:
		if c.Index == geo.Auto {
			return false, nil
		}
		return false, fmt.Errorf("cluster: strategy %v requires Config.Points", c.Index)
	case len(c.Points) != n:
		return false, fmt.Errorf("cluster: %d points for %d nodes", len(c.Points), n)
	case c.Index == geo.Auto && (n < indexAutoMinN || !geo.Finite(c.Points)):
		return false, nil
	}
	return true, nil
}

func edgeKey(e graph.Edge) [2]int {
	if e.From < e.To {
		return [2]int{e.From, e.To}
	}
	return [2]int{e.To, e.From}
}

// inconsistentEdges applies the Zahn test to every MST edge.
func inconsistentEdges(n int, mst []graph.Edge, cfg Config) []graph.Edge {
	if cfg.Criterion == CriterionGlobalMedian {
		weights := make([]float64, len(mst))
		for i, e := range mst {
			weights[i] = e.Weight
		}
		med := median(weights)
		var removed []graph.Edge
		for _, e := range mst {
			if med > 0 && e.Weight > cfg.InconsistencyFactor*med {
				removed = append(removed, e)
			}
		}
		return removed
	}

	// Adjacency of the tree: node → incident edge indices.
	adj := make([][]int, n)
	for idx, e := range mst {
		adj[e.From] = append(adj[e.From], idx)
		adj[e.To] = append(adj[e.To], idx)
	}

	var removed []graph.Edge
	for idx, e := range mst {
		left := nearbyEdgeWeights(mst, adj, e.From, idx, cfg.NeighborhoodDepth)
		right := nearbyEdgeWeights(mst, adj, e.To, idx, cfg.NeighborhoodDepth)
		if isInconsistent(e.Weight, left, right, cfg) {
			removed = append(removed, e)
		}
	}
	return removed
}

// median returns the lower median of xs (xs is not mutated).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[(len(sorted)-1)/2]
}

// nearbyEdgeWeights collects the weights of tree edges reachable from start
// within depth hops, never traversing the excluded edge — i.e., the "nearby"
// links of one subtree side.
func nearbyEdgeWeights(mst []graph.Edge, adj [][]int, start, excludeIdx, depth int) []float64 {
	type frontierNode struct {
		v int
		d int
	}
	visitedEdges := map[int]bool{excludeIdx: true}
	visitedNodes := map[int]bool{start: true}
	queue := []frontierNode{{v: start, d: 0}}
	var weights []float64
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d == depth {
			continue
		}
		for _, ei := range adj[cur.v] {
			if visitedEdges[ei] {
				continue
			}
			visitedEdges[ei] = true
			e := mst[ei]
			weights = append(weights, e.Weight)
			next := e.From
			if next == cur.v {
				next = e.To
			}
			if !visitedNodes[next] {
				visitedNodes[next] = true
				queue = append(queue, frontierNode{v: next, d: cur.d + 1})
			}
		}
	}
	return weights
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// isInconsistent applies the configured a/b > k test. Sides without nearby
// edges (leaf endpoints) do not constrain the decision; an edge with no
// nearby edges at all is consistent by definition.
func isInconsistent(a float64, left, right []float64, cfg Config) bool {
	k := cfg.InconsistencyFactor
	switch cfg.Criterion {
	case CriterionBothSides:
		switch {
		case len(left) == 0 && len(right) == 0:
			return false
		case len(left) == 0:
			return a > k*avg(right)
		case len(right) == 0:
			return a > k*avg(left)
		default:
			return a > k*avg(left) && a > k*avg(right)
		}
	case CriterionMaxSide:
		b := math.Max(avg(left), avg(right))
		return b > 0 && a > k*b
	default: // CriterionCombined
		combined := append(append([]float64(nil), left...), right...)
		b := avg(combined)
		return b > 0 && a > k*b
	}
}

// componentsToClusters converts union-find state into the canonical
// Result representation with deterministic cluster IDs.
func componentsToClusters(n int, uf *graph.UnionFind) ([]int, [][]int) {
	repToMembers := make(map[int][]int)
	for v := 0; v < n; v++ {
		r := uf.Find(v)
		repToMembers[r] = append(repToMembers[r], v)
	}
	groups := make([][]int, 0, len(repToMembers))
	for _, members := range repToMembers {
		sort.Ints(members)
		groups = append(groups, members)
	}
	// Order clusters by smallest member for determinism.
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	assignment := make([]int, n)
	for id, members := range groups {
		for _, v := range members {
			assignment[v] = id
		}
	}
	return assignment, groups
}

// mergeSmallClusters folds clusters below minSize into the cluster of their
// nearest outside node (single-linkage), repeating until no undersized
// cluster remains or only one cluster is left. The nearest outside node is
// chosen under the canonical (distance, small member u, outside node v)
// order — scanning u and v in ascending node order with a strict < makes
// ties resolve to exactly that tuple minimum, and the geo-indexed path
// reproduces it query for query. idx, when non-nil, is an index over the
// full node set (pts aligned with dist).
func mergeSmallClusters(res *Result, dist func(i, j int) float64, minSize int, pts []coords.Point, idx geo.Index) {
	n := len(res.Assignment)
	inSmall := make([]bool, n)
	for len(res.Clusters) > 1 {
		smallID := -1
		for id, members := range res.Clusters {
			if len(members) < minSize {
				smallID = id
				break
			}
		}
		if smallID == -1 {
			return
		}
		// Find nearest outside node over all members of the small cluster.
		bestDist := math.Inf(1)
		bestCluster := -1
		small := res.Clusters[smallID]
		for _, u := range small {
			inSmall[u] = true
		}
		if idx != nil {
			skip := func(v int) bool { return inSmall[v] }
			for _, u := range small {
				// The incumbent distance bounds the query; a returned
				// candidate below it is necessarily the exact per-u
				// minimum, so the strict merge reproduces the brute scan.
				nb, ok := idx.NearestBounded(pts[u], bestDist, skip)
				if ok && nb.Dist < bestDist {
					bestDist = nb.Dist
					bestCluster = res.Assignment[nb.Idx]
				}
			}
		} else {
			for _, u := range small {
				for v := 0; v < n; v++ {
					if inSmall[v] {
						continue
					}
					if d := dist(u, v); d < bestDist {
						bestDist = d
						bestCluster = res.Assignment[v]
					}
				}
			}
		}
		for _, u := range small {
			inSmall[u] = false
		}
		merged := append(res.Clusters[smallID], res.Clusters[bestCluster]...)
		sort.Ints(merged)
		// Rebuild cluster list without smallID, replacing bestCluster.
		var groups [][]int
		for id, members := range res.Clusters {
			switch id {
			case smallID:
			case bestCluster:
				groups = append(groups, merged)
			default:
				groups = append(groups, members)
			}
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
		res.Clusters = groups
		for id, members := range groups {
			for _, v := range members {
				res.Assignment[v] = id
			}
		}
	}
}

// Quality summarizes how well a clustering separates near from far nodes.
type Quality struct {
	// NumClusters is the cluster count.
	NumClusters int
	// MeanIntra is the mean pairwise distance within clusters (0 when all
	// clusters are singletons).
	MeanIntra float64
	// MeanInter is the mean pairwise distance across clusters (0 when
	// there is a single cluster).
	MeanInter float64
	// Separation is MeanInter / MeanIntra (+Inf when MeanIntra is 0;
	// higher is better).
	Separation float64
	// MaxClusterFraction is the size of the largest cluster divided by n;
	// values near 1 indicate the degenerate one-big-cluster outcome the
	// paper discusses in §6.1.
	MaxClusterFraction float64
}

// Evaluate computes clustering quality over the same distance function the
// clustering ran on.
func Evaluate(res *Result, dist func(i, j int) float64) Quality {
	n := len(res.Assignment)
	var intraSum, interSum float64
	var intraCnt, interCnt int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			if res.Assignment[i] == res.Assignment[j] {
				intraSum += d
				intraCnt++
			} else {
				interSum += d
				interCnt++
			}
		}
	}
	q := Quality{NumClusters: len(res.Clusters)}
	if intraCnt > 0 {
		q.MeanIntra = intraSum / float64(intraCnt)
	}
	if interCnt > 0 {
		q.MeanInter = interSum / float64(interCnt)
	}
	if q.MeanIntra > 0 {
		q.Separation = q.MeanInter / q.MeanIntra
	} else if q.MeanInter > 0 {
		q.Separation = math.Inf(1)
	}
	maxSize := 0
	for _, members := range res.Clusters {
		if len(members) > maxSize {
			maxSize = len(members)
		}
	}
	if n > 0 {
		q.MaxClusterFraction = float64(maxSize) / float64(n)
	}
	return q
}
