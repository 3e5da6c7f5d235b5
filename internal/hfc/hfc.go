// Package hfc constructs the paper's Hierarchically Fully-Connected overlay
// topology (§3): given the embedded coordinates of the overlay proxies and a
// distance-based clustering, it selects the border-proxy pair for every pair
// of clusters (the closest cross-cluster node pair, §3.3) and hands out the
// per-node topology views that the election-winner proxy P distributes
// (Fig. 4): cluster membership and the border table, whose coordinates a
// View bounds to what every node is entitled to keep (own cluster members +
// all border proxies).
package hfc

import (
	"errors"
	"fmt"
	"sort"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/par"
)

// BorderPair is the pair of border proxies connecting two clusters: the two
// closest nodes drawn one from each cluster. Low/High are overlay node
// indices; Low belongs to the cluster with the smaller cluster ID.
type BorderPair struct {
	Low, High int
}

// Topology is a constructed HFC overlay: intra-cluster connectivity is full,
// and clusters are fully connected pairwise through their border pairs.
type Topology struct {
	coords     *coords.Map
	clustering *cluster.Result
	// borderNodes is the sorted set of all border proxies in the system.
	borderNodes []int
	// borderNodesByCluster[c] lists cluster c's border proxies, sorted.
	borderNodesByCluster map[int][]int
	// static is the K×K table of borders that every reader indexes: what
	// Border answers, what a detached SharedView's Dense returns (a View
	// shares its arrays), and the table a Dynamic publishes until the first
	// membership change. Never written after Build.
	static *DenseTables
}

// Build constructs the HFC topology from an embedded coordinate map and a
// clustering of the same node set. Border pairs are chosen per §3.3: for
// every pair of clusters, the cross-cluster node pair at minimum embedded
// distance, with deterministic index-order tie-breaking. Large overlays
// elect through per-cluster geo indexes (see election.go); the result is
// bit-identical to BuildWithSelector(cmap, clustering,
// ClosestPairSelector()), which always runs the brute scans.
//
// The per-cluster-pair closest-pair scans fan out on the par pool. Each
// pair's scan reads only the immutable coordinate map, member lists and
// prebuilt per-cluster indexes and writes a slot private to that pair, and
// assembly walks the pairs in a < b order, so the topology is bit-identical
// for any GOMAXPROCS.
func Build(cmap *coords.Map, clustering *cluster.Result) (*Topology, error) {
	if err := checkInputs(cmap, clustering); err != nil {
		return nil, err
	}
	elect := buildElectionIndexes(cmap, clustering)
	return assemble(cmap, clustering, par.For, func(a, b int) (BorderPair, error) {
		return electBorders(cmap, clustering.Clusters[a], clustering.Clusters[b], elect.forPair(b))
	})
}

// checkInputs is the validation Build and BuildWithSelector share.
func checkInputs(cmap *coords.Map, clustering *cluster.Result) error {
	if cmap == nil {
		return errors.New("hfc: nil coordinate map")
	}
	if clustering == nil {
		return errors.New("hfc: nil clustering")
	}
	if len(clustering.Assignment) != cmap.N() {
		return fmt.Errorf("hfc: clustering covers %d nodes but map has %d", len(clustering.Assignment), cmap.N())
	}
	return nil
}

// assemble builds the topology from one election per cluster pair: elect
// returns pair (a, b)'s border pair. each visits the pairs — par.For when
// elect is a pure function of (a, b), a plain loop in a < b order when it
// draws from an rng — and the tables are then filled in a < b order
// whichever it was.
func assemble(cmap *coords.Map, clustering *cluster.Result, each func(n int, fn func(i int)),
	elect func(a, b int) (BorderPair, error)) (*Topology, error) {
	type pairResult struct {
		a, b int
		pair BorderPair
		err  error
	}
	k := clustering.NumClusters()
	results := make([]pairResult, 0, k*(k-1)/2)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			results = append(results, pairResult{a: a, b: b})
		}
	}
	each(len(results), func(i int) {
		r := &results[i]
		r.pair, r.err = elect(r.a, r.b)
	})

	t := &Topology{
		coords:               cmap,
		clustering:           clustering,
		borderNodesByCluster: make(map[int][]int),
		static:               newDenseTables(k, cmap.Points),
	}
	borderSet := make(map[int]bool)
	perCluster := make(map[int]map[int]bool)
	for _, r := range results {
		a, b, pair := r.a, r.b, r.pair
		if r.err != nil {
			return nil, fmt.Errorf("hfc: selecting border pair (%d,%d): %w", a, b, r.err)
		}
		if clustering.Assignment[pair.Low] != a || clustering.Assignment[pair.High] != b {
			return nil, fmt.Errorf("hfc: selector returned pair (%d,%d) outside clusters (%d,%d)", pair.Low, pair.High, a, b)
		}
		t.static.setPair(a, b, pair, cmap.Dist(pair.Low, pair.High))
		if perCluster[a] == nil {
			perCluster[a] = make(map[int]bool)
		}
		if perCluster[b] == nil {
			perCluster[b] = make(map[int]bool)
		}
		borderSet[pair.Low] = true
		borderSet[pair.High] = true
		perCluster[a][pair.Low] = true
		perCluster[b][pair.High] = true
	}
	t.borderNodes = sortedKeys(borderSet)
	for c, set := range perCluster {
		t.borderNodesByCluster[c] = sortedKeys(set)
	}
	return t, nil
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// improves reports whether candidate pair (a, b) at distance d should
// replace the incumbent best pair: strictly closer, or an exact distance tie
// broken toward smaller node indices so border election is deterministic.
func improves(d, bestDist float64, a, b int, best BorderPair) bool {
	if best.Low == -1 || d < bestDist {
		return true
	}
	return d == bestDist && (a < best.Low || (a == best.Low && b < best.High))
}

// closestPair returns the minimum-distance cross pair between two member
// lists. Ties break toward smaller node indices for determinism.
func closestPair(cmap *coords.Map, membersA, membersB []int) (BorderPair, error) {
	if len(membersA) == 0 || len(membersB) == 0 {
		return BorderPair{}, errors.New("hfc: empty cluster")
	}
	best := BorderPair{Low: -1, High: -1}
	bestDist := 0.0
	for _, a := range membersA {
		for _, b := range membersB {
			d := cmap.Dist(a, b)
			if improves(d, bestDist, a, b, best) {
				best = BorderPair{Low: a, High: b}
				bestDist = d
			}
		}
	}
	return best, nil
}

// N returns the number of overlay nodes.
func (t *Topology) N() int { return t.coords.N() }

// NumClusters returns the number of clusters.
func (t *Topology) NumClusters() int { return t.clustering.NumClusters() }

// ClusterOf returns the cluster ID of an overlay node.
func (t *Topology) ClusterOf(node int) int { return t.clustering.Assignment[node] }

// Members returns the member list of a cluster (sorted, shared slice — do
// not modify).
func (t *Topology) Members(clusterID int) []int { return t.clustering.Clusters[clusterID] }

// Coords returns the underlying coordinate map.
func (t *Topology) Coords() *coords.Map { return t.coords }

// Clustering returns the clustering the topology was built from.
func (t *Topology) Clustering() *cluster.Result { return t.clustering }

// Dist returns the embedded (decision-time) distance between two overlay
// nodes. It is the distance metric every HFC routing decision uses.
func (t *Topology) Dist(u, v int) float64 { return t.coords.Dist(u, v) }

// Border returns the border pair connecting two distinct clusters, oriented
// so that the first return value lies in cluster a and the second in
// cluster b.
func (t *Topology) Border(a, b int) (inA, inB int, err error) {
	if a == b {
		return 0, 0, fmt.Errorf("hfc: no border pair within a single cluster %d", a)
	}
	k := t.static.K
	if a < 0 || a >= k || b < 0 || b >= k {
		return 0, 0, fmt.Errorf("hfc: no border pair for clusters (%d,%d)", a, b)
	}
	return int(t.static.BorderInA[a*k+b]), int(t.static.BorderInA[b*k+a]), nil
}

// ConstrainedDist returns the length of the HFC overlay hop path from u to
// v without allocating: direct embedded distance within a cluster, and the
// through-the-borders sum across clusters. It is the hot-path form of
// PathLength(OverlayHopPath(u, v)).
func (t *Topology) ConstrainedDist(u, v int) float64 {
	cu, cv := t.ClusterOf(u), t.ClusterOf(v)
	if cu == cv {
		return t.Dist(u, v)
	}
	k := t.static.K
	bu, bv := int(t.static.BorderInA[cu*k+cv]), int(t.static.BorderInA[cv*k+cu])
	d := t.static.Ext[cu*k+cv]
	if u != bu {
		d += t.Dist(u, bu)
	}
	if v != bv {
		d += t.Dist(bv, v)
	}
	return d
}

// ExternalLinkLength returns the embedded length of the external link
// between two distinct clusters.
func (t *Topology) ExternalLinkLength(a, b int) (float64, error) {
	u, v, err := t.Border(a, b)
	if err != nil {
		return 0, err
	}
	return t.Dist(u, v), nil
}

// BorderNodes returns all border proxies in the system, sorted (shared
// slice — do not modify).
func (t *Topology) BorderNodes() []int { return t.borderNodes }

// BorderNodesOf returns cluster c's border proxies, sorted (shared slice —
// do not modify). A single-cluster system has none.
func (t *Topology) BorderNodesOf(c int) []int { return t.borderNodesByCluster[c] }

// IsBorder reports whether node is a border proxy of its cluster.
func (t *Topology) IsBorder(node int) bool {
	for _, b := range t.borderNodesByCluster[t.ClusterOf(node)] {
		if b == node {
			return true
		}
	}
	return false
}

// OverlayHopPath returns the overlay relay sequence a message from u to v
// traverses under HFC connectivity (§3 property 2): a direct hop within a
// cluster, or via the two border proxies between the clusters. Endpoints
// are included; border proxies that coincide with an endpoint are not
// duplicated.
func (t *Topology) OverlayHopPath(u, v int) ([]int, error) {
	if u < 0 || u >= t.N() || v < 0 || v >= t.N() {
		return nil, fmt.Errorf("hfc: hop path (%d,%d) out of range [0,%d)", u, v, t.N())
	}
	cu, cv := t.ClusterOf(u), t.ClusterOf(v)
	if u == v {
		return []int{u}, nil
	}
	if cu == cv {
		return []int{u, v}, nil
	}
	bu, bv, err := t.Border(cu, cv)
	if err != nil {
		return nil, err
	}
	path := []int{u}
	if bu != u {
		path = append(path, bu)
	}
	if bv != v {
		path = append(path, bv)
	}
	path = append(path, v)
	return path, nil
}

// PathLength sums the embedded distances along a node sequence.
func (t *Topology) PathLength(nodes []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		total += t.Dist(nodes[i], nodes[i+1])
	}
	return total
}

// MaxOverlayHops is the §3 guarantee: any two nodes are at most two overlay
// nodes (three hops) apart in a bi-level HFC topology.
const MaxOverlayHops = 3

// Validate checks the topology's structural invariants: every cluster pair
// has a border pair whose endpoints lie in the right clusters, border lists
// are consistent, and every node belongs to exactly one cluster.
func (t *Topology) Validate() error {
	k := t.NumClusters()
	seen := make(map[int]bool, t.N())
	for c := 0; c < k; c++ {
		for _, m := range t.Members(c) {
			if t.ClusterOf(m) != c {
				return fmt.Errorf("hfc: node %d listed in cluster %d but assigned to %d", m, c, t.ClusterOf(m))
			}
			if seen[m] {
				return fmt.Errorf("hfc: node %d appears in multiple clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != t.N() {
		return fmt.Errorf("hfc: clusters cover %d of %d nodes", len(seen), t.N())
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			u, v, err := t.Border(a, b)
			if err != nil {
				return err
			}
			if t.ClusterOf(u) != a || t.ClusterOf(v) != b {
				return fmt.Errorf("hfc: border pair (%d,%d) of clusters (%d,%d) lies in clusters (%d,%d)",
					u, v, a, b, t.ClusterOf(u), t.ClusterOf(v))
			}
			// §3.3: the border pair is the closest cross pair.
			want, err := closestPair(t.coords, t.Members(a), t.Members(b))
			if err != nil {
				return err
			}
			if t.Dist(u, v) > t.Dist(want.Low, want.High)+1e-12 {
				return fmt.Errorf("hfc: border pair (%d,%d) is not the closest pair between clusters (%d,%d)", u, v, a, b)
			}
		}
	}
	return nil
}
