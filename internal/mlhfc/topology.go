// Package mlhfc generalizes the paper's bi-level HFC topology to three
// levels — the scaling direction the paper's "bi-level HFC hierarchy"
// phrasing implies. Overlay nodes are first grouped coarsely
// (super-clusters); each group internally runs the complete bi-level HFC
// construction (MST clustering + closest-pair borders); groups are fully
// connected pairwise through super-border node pairs. Any two nodes are at
// most 4 overlay hops apart, and per-node state drops from
// |cluster| + #clusters (bi-level) to |cluster| + #clusters-in-own-group +
// #groups.
//
// The third tier is the second tier's types one level up. Each group's
// interior IS an hfc.Topology over group-local indices; the tier above IS an
// hfc.Topology over global indices whose clusters are the groups and whose
// border pairs are the super-border pairs; and a request is resolved by
// routing.HierarchicalRouter over that super tier, with each per-group child
// resolved by the same router over the group's interior. This package adds
// the grouping, the super-aggregates and the index translation; the search
// and the divide are routing's.
package mlhfc

import (
	"errors"
	"fmt"
	"sort"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/graph"
	"hfc/internal/hfc"
	"hfc/internal/par"
)

// Config selects the two clustering granularities.
type Config struct {
	// Top configures the grouping of cluster CENTROIDS into
	// super-clusters — "clustering the clusters". Default: the library
	// default MST settings with the global-median criterion.
	Top cluster.Config
	// Inner configures the fine per-node clustering whose clusters become
	// the interior bi-level clusters. Default: the library default.
	Inner cluster.Config
	// TargetGroups, when > 1, overrides Top's detection with a fixed
	// fan-out: the longest centroid-MST edges are cut until exactly this
	// many groups remain (bounded by the fine-cluster count). Overlay
	// embeddings often lack a crisp second distance scale, so operators
	// pick the hierarchy fan-out — √(#clusters) balances the levels.
	TargetGroups int
}

// DefaultConfig returns the granularities used by the experiments: the
// library default for the fine pass, and the global-median criterion for
// the (small) centroid set, where local neighbourhood averages are
// unreliable.
func DefaultConfig() Config {
	top := cluster.DefaultConfig()
	top.Criterion = cluster.CriterionGlobalMedian
	return Config{Top: top, Inner: cluster.DefaultConfig()}
}

// Topology is a constructed tri-level HFC overlay.
type Topology struct {
	// super is the tier above the groups: an HFC topology over the global
	// node indices whose clusters are the groups (members sorted; a node's
	// position in its group's list is its group-local index) and whose
	// border pairs are the super-border pairs — §3.3 one level up.
	super *hfc.Topology
	// local maps a global node to its group-local index.
	local []int
	// perGroup holds each group's interior bi-level HFC topology over
	// group-local indices.
	perGroup []*hfc.Topology
}

// Build constructs the tri-level topology from embedded coordinates: a
// fine per-node clustering first, then a second Zahn pass over the fine
// clusters' centroids to form groups (every fine cluster lands wholly in
// one group), then the interior HFC per group reusing the fine clusters.
func Build(cmap *coords.Map, cfg Config) (*Topology, error) {
	if cmap == nil {
		return nil, errors.New("mlhfc: nil coordinate map")
	}
	fine, err := cluster.Cluster(cmap.N(), cmap.Dist, cfg.Inner)
	if err != nil {
		return nil, fmt.Errorf("mlhfc: fine clustering: %w", err)
	}
	// Centroids of the fine clusters.
	dim := cmap.Dim
	centroids := make([]coords.Point, fine.NumClusters())
	for c, members := range fine.Clusters {
		centroid := make(coords.Point, dim)
		for _, m := range members {
			for d := 0; d < dim; d++ {
				centroid[d] += cmap.Points[m][d] / float64(len(members))
			}
		}
		centroids[c] = centroid
	}
	centroidDist := func(i, j int) float64 { return coords.Dist(centroids[i], centroids[j]) }
	var clusterGroup []int
	if cfg.TargetGroups > 1 {
		clusterGroup, err = cutToTarget(len(centroids), centroidDist, cfg.TargetGroups)
		if err != nil {
			return nil, fmt.Errorf("mlhfc: centroid grouping: %w", err)
		}
	} else {
		top, err := cluster.Cluster(len(centroids), centroidDist, cfg.Top)
		if err != nil {
			return nil, fmt.Errorf("mlhfc: centroid grouping: %w", err)
		}
		clusterGroup = top.Assignment
	}
	// Node's group = group of its fine cluster.
	assignment := make([]int, cmap.N())
	for node, c := range fine.Assignment {
		assignment[node] = clusterGroup[c]
	}
	grouping := groupingFromAssignment(assignment)
	return BuildFromGrouping(cmap, grouping, cfg.Inner)
}

// cutToTarget removes the longest MST edges over the n points until exactly
// min(target, n) components remain, returning the component assignment.
func cutToTarget(n int, dist func(i, j int) float64, target int) ([]int, error) {
	mst, err := graph.EuclideanMST(n, dist)
	if err != nil {
		return nil, err
	}
	if target > n {
		target = n
	}
	sort.Slice(mst, func(a, b int) bool { return mst[a].Weight < mst[b].Weight })
	uf := graph.NewUnionFind(n)
	// Keep the n-target shortest edges; cutting the target-1 longest ones
	// leaves exactly target components.
	for _, e := range mst[:n-target] {
		uf.Union(e.From, e.To)
	}
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = uf.Find(i)
	}
	return assignment, nil
}

// groupingFromAssignment densifies an assignment vector.
func groupingFromAssignment(assignment []int) *cluster.Result {
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

// BuildFromGrouping constructs the tri-level topology from an explicit
// top-level grouping (used by tests and by callers with their own grouping
// policy). The per-group interior HFC constructions fan out on the par pool,
// as the super tier's border elections do inside hfc.Build: each is
// independent and rng-free and results merge by index, so the topology is
// bit-identical for any GOMAXPROCS.
func BuildFromGrouping(cmap *coords.Map, grouping *cluster.Result, inner cluster.Config) (*Topology, error) {
	if cmap == nil {
		return nil, errors.New("mlhfc: nil coordinate map")
	}
	if grouping == nil {
		return nil, errors.New("mlhfc: nil grouping")
	}
	if len(grouping.Assignment) != cmap.N() {
		return nil, fmt.Errorf("mlhfc: grouping covers %d nodes but map has %d", len(grouping.Assignment), cmap.N())
	}
	// The groups as a clustering of the global nodes, members sorted.
	groups := &cluster.Result{
		Assignment: append([]int(nil), grouping.Assignment...),
		Clusters:   make([][]int, grouping.NumClusters()),
	}
	local := make([]int, cmap.N())
	for g, members := range grouping.Clusters {
		groups.Clusters[g] = append([]int(nil), members...)
		sort.Ints(groups.Clusters[g])
		for li, node := range groups.Clusters[g] {
			local[node] = li
		}
	}
	// Super-border pairs: hfc.Build's closest-pair election per group pair.
	super, err := hfc.Build(cmap, groups)
	if err != nil {
		return nil, fmt.Errorf("mlhfc: super tier: %w", err)
	}
	t := &Topology{super: super, local: local, perGroup: make([]*hfc.Topology, len(groups.Clusters))}

	// Interior bi-level HFC per group, one worker slot per group.
	if err := par.ForErr(t.NumGroups(), func(g int) error {
		members := t.Members(g)
		pts := make([]coords.Point, len(members))
		for li, node := range members {
			pts[li] = cmap.Points[node].Clone()
		}
		sub, err := coords.NewMap(pts)
		if err != nil {
			return fmt.Errorf("mlhfc: group %d map: %w", g, err)
		}
		// The interior clustering runs over GROUP-LOCAL indices, so any
		// Points the caller supplied (global indices) must be replaced by
		// the group's own sub-map — which also switches the interior MST
		// onto the sub-quadratic geometric engine, the difference between
		// minutes and seconds at n=100k.
		innerCfg := inner
		innerCfg.Points = sub.Points
		clustering, err := cluster.Cluster(sub.N(), sub.Dist, innerCfg)
		if err != nil {
			return fmt.Errorf("mlhfc: group %d clustering: %w", g, err)
		}
		topo, err := hfc.Build(sub, clustering)
		if err != nil {
			return fmt.Errorf("mlhfc: group %d hfc: %w", g, err)
		}
		t.perGroup[g] = topo
		return nil
	}); err != nil {
		return nil, err
	}

	return t, nil
}

// N returns the number of overlay nodes.
func (t *Topology) N() int { return t.super.N() }

// NumGroups returns the number of super-clusters.
func (t *Topology) NumGroups() int { return t.super.NumClusters() }

// GroupOf returns the group of a global node.
func (t *Topology) GroupOf(node int) int { return t.super.ClusterOf(node) }

// Members returns a group's global node list (sorted; shared slice).
func (t *Topology) Members(g int) []int { return t.super.Members(g) }

// Interior returns group g's bi-level HFC topology (group-local indices).
func (t *Topology) Interior(g int) *hfc.Topology { return t.perGroup[g] }

// ToLocal translates a global node index to its group-local index.
func (t *Topology) ToLocal(node int) int { return t.local[node] }

// ToGlobal translates a group-local index back to the global node index.
func (t *Topology) ToGlobal(g, localIdx int) int { return t.super.Members(g)[localIdx] }

// SuperBorder returns the super-border pair between two distinct groups,
// oriented (inA, inB), as global node indices.
func (t *Topology) SuperBorder(a, b int) (inA, inB int, err error) { return t.super.Border(a, b) }

// Dist returns the embedded distance between two global nodes.
func (t *Topology) Dist(u, v int) float64 { return t.super.Dist(u, v) }

// CoordinateStateSize is the number of coordinate records node keeps under
// the tri-level scheme: its own inner cluster's members, the border proxies
// of its own group's interior, and every super-border node in the system
// (deduplicated) — the tri-level analogue of Fig. 9(a). Only the own
// group's super borders can already be entitled in the interior, so the
// count is the interior's plus every super border less those.
func (t *Topology) CoordinateStateSize(node int) int {
	g := t.GroupOf(node)
	interior := t.perGroup[g]
	own := interior.ClusterOf(t.local[node])
	n := interior.CoordinateStateSize(t.local[node]) + len(t.super.BorderNodes())
	for _, sb := range t.super.BorderNodesOf(g) {
		if li := t.local[sb]; interior.ClusterOf(li) == own || interior.IsBorder(li) {
			n--
		}
	}
	return n
}

// ServiceStateSize is the tri-level analogue of Fig. 9(b): one entry per
// own-inner-cluster proxy, one aggregate per cluster in the own group, and
// one super-aggregate per group.
func (t *Topology) ServiceStateSize(node int) int {
	interior := t.perGroup[t.GroupOf(node)]
	ownCluster := interior.ClusterOf(t.local[node])
	return len(interior.Members(ownCluster)) + interior.NumClusters() + t.NumGroups()
}

// MaxOverlayHops is the tri-level reachability bound: at most two
// super-border relays plus two inner border relays.
const MaxOverlayHops = 5

// Validate checks structural invariants across all three levels: the super
// tier (every node in exactly one group, every super-border pair the closest
// cross pair of its two groups), the index translation, and each group's
// interior.
func (t *Topology) Validate() error {
	if err := t.super.Validate(); err != nil {
		return fmt.Errorf("mlhfc: super tier: %w", err)
	}
	for g := 0; g < t.NumGroups(); g++ {
		for li, node := range t.Members(g) {
			if t.local[node] != li {
				return fmt.Errorf("mlhfc: node %d local index %d, want %d", node, t.local[node], li)
			}
		}
		if err := t.perGroup[g].Validate(); err != nil {
			return fmt.Errorf("mlhfc: group %d interior: %w", g, err)
		}
	}
	return nil
}
