package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hfc/internal/svc"
)

// This file holds the map-based cluster-level search the flat
// clusterLevelPath replaced on the production path, text unchanged. It is
// the oracle the equivalence tests (cspflat_test.go) compare against in
// all three relax modes.

// label is the cluster-level search state for one (SG vertex, cluster)
// pair (Backtrack/ExternalOnly modes) or one (SG vertex, cluster, entry)
// triple (Exact mode).
type label struct {
	dist float64
	// entry is the border proxy through which the path entered the
	// cluster, or -1 when the path has been inside this cluster since the
	// source proxy (internal offset unknown to pd, counted as 0).
	entry int
	// parent identifies the predecessor label for reconstruction.
	parentV int // SG vertex, -1 for virtual source
	parentC int // cluster
	parentE int // entry border of predecessor (Exact mode), else -1
}

// clusterLevelPathGeneric is the map-based reference implementation of the
// cluster-level search, covering every relaxation mode.
func (r *HierarchicalRouter) clusterLevelPathGeneric(req svc.Request, srcCluster, destCluster int) ([]CSPEntry, float64, error) {
	sg := req.SG
	nv := sg.Len()

	// Candidate clusters per SG vertex, from SCT_C (optionally narrowed by
	// the QoS admissibility hook).
	cands := make([][]int, nv)
	for v := 0; v < nv; v++ {
		var all []int
		if r.Index != nil {
			all = r.Index.ClustersProviding(sg.Services[v])
		} else {
			all = r.State.ClustersProviding(sg.Services[v])
		}
		if r.ClusterAdmissible != nil {
			// Filter into a fresh slice: the index path hands out a shared
			// read-only slice that must not be compacted in place.
			kept := make([]int, 0, len(all))
			for _, c := range all {
				if r.ClusterAdmissible(sg.Services[v], c) {
					kept = append(kept, c)
				}
			}
			all = kept
		}
		cands[v] = all
		if len(cands[v]) == 0 {
			return nil, 0, fmt.Errorf("routing: service %q: %w", sg.Services[v], ErrNoProviders)
		}
	}
	crossingOK := func(a, b int) bool {
		return r.CrossingAdmissible == nil || r.CrossingAdmissible(a, b)
	}

	order, err := sgTopoOrder(sg)
	if err != nil {
		return nil, 0, err
	}
	edgesByTail := make([][]int, nv)
	for _, e := range sg.Edges {
		edgesByTail[e[0]] = append(edgesByTail[e[0]], e[1])
	}

	exact := r.mode() == RelaxExact
	// Labels: per (vertex, cluster) in greedy modes; per (vertex, cluster,
	// entry) in exact mode. Entry index -1 is encoded as key k (one past
	// the last cluster... entries are node IDs, so use a map).
	type key struct {
		v, c, e int
	}
	labels := make(map[key]label)
	betterOf := func(k key, cand label) bool {
		old, ok := labels[k]
		if !ok || cand.dist < old.dist {
			labels[k] = cand
			return true
		}
		return false
	}
	keyOf := func(v, c, e int) key {
		if !exact {
			return key{v, c, 0}
		}
		return key{v, c, e}
	}

	// internalDist returns the distance inside cluster c from the entry
	// border to the exit border, 0 when the entry is unknown (-1) or they
	// coincide.
	internalDist := func(entry, exit int) (float64, error) {
		if entry == -1 || entry == exit {
			return 0, nil
		}
		if r.mode() == RelaxExternalOnly {
			return 0, nil
		}
		return r.View.Dist(entry, exit)
	}

	// Initialize SG source vertices.
	for _, v := range sg.Sources() {
		for _, c := range cands[v] {
			var l label
			l.parentV = -1
			l.parentC = -1
			l.parentE = -1
			if c == srcCluster {
				l.dist = 0
				l.entry = -1
			} else {
				if !crossingOK(srcCluster, c) {
					continue
				}
				ext, err := r.externalLink(srcCluster, c)
				if err != nil {
					return nil, 0, err
				}
				l.dist = ext
				_, inC, err := r.View.Border(srcCluster, c)
				if err != nil {
					return nil, 0, err
				}
				l.entry = inC
			}
			betterOf(keyOf(v, c, l.entry), l)
		}
	}

	// Relax SG edges in topological order.
	for _, u := range order {
		for _, c := range cands[u] {
			// Collect the labels at (u, c): one in greedy modes, possibly
			// several in exact mode.
			var uLabels []label
			if exact {
				entries := append([]int{-1}, r.clusterBorders(c)...)
				for _, e := range entries {
					if l, ok := labels[key{u, c, e}]; ok {
						uLabels = append(uLabels, l)
					}
				}
			} else if l, ok := labels[key{u, c, 0}]; ok {
				uLabels = append(uLabels, l)
			}
			for _, ul := range uLabels {
				for _, v := range edgesByTail[u] {
					for _, c2 := range cands[v] {
						nl := label{parentV: u, parentC: c, parentE: ul.entry}
						if c2 == c {
							nl.dist = ul.dist
							nl.entry = ul.entry
						} else {
							if !crossingOK(c, c2) {
								continue
							}
							exitB, inC2, err := r.View.Border(c, c2)
							if err != nil {
								return nil, 0, err
							}
							internal, err := internalDist(ul.entry, exitB)
							if err != nil {
								return nil, 0, err
							}
							ext, err := r.externalLink(c, c2)
							if err != nil {
								return nil, 0, err
							}
							nl.dist = ul.dist + internal + ext
							nl.entry = inC2
						}
						betterOf(keyOf(v, c2, nl.entry), nl)
					}
				}
			}
		}
	}

	// Terminate at the destination proxy.
	best := label{dist: math.Inf(1)}
	bestV, bestC, bestE := -1, -1, -1
	consider := func(v, c int, l label) error {
		total := l.dist
		if c == destCluster {
			tail, err := internalDist(l.entry, r.View.Node)
			if err != nil {
				return err
			}
			total += tail
		} else {
			if !crossingOK(c, destCluster) {
				return nil
			}
			exitB, inDest, err := r.View.Border(c, destCluster)
			if err != nil {
				return err
			}
			internal, err := internalDist(l.entry, exitB)
			if err != nil {
				return err
			}
			ext, err := r.externalLink(c, destCluster)
			if err != nil {
				return err
			}
			tail := 0.0
			if r.mode() != RelaxExternalOnly && inDest != r.View.Node {
				tail, err = r.View.Dist(inDest, r.View.Node)
				if err != nil {
					return err
				}
			}
			total += internal + ext + tail
		}
		if total < best.dist {
			best = label{dist: total, entry: l.entry, parentV: l.parentV, parentC: l.parentC, parentE: l.parentE}
			bestV, bestC, bestE = v, c, l.entry
		}
		return nil
	}
	for _, v := range sg.Sinks() {
		for _, c := range cands[v] {
			if exact {
				entries := append([]int{-1}, r.clusterBorders(c)...)
				for _, e := range entries {
					if l, ok := labels[key{v, c, e}]; ok {
						if err := consider(v, c, l); err != nil {
							return nil, 0, err
						}
					}
				}
			} else if l, ok := labels[key{v, c, 0}]; ok {
				if err := consider(v, c, l); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	if bestV == -1 {
		return nil, 0, ErrInfeasible
	}

	// Reconstruct the CSP.
	var rev []CSPEntry
	v, c, e := bestV, bestC, bestE
	for v != -1 {
		rev = append(rev, CSPEntry{SGVertex: v, Cluster: c})
		l, ok := labels[keyOf(v, c, e)]
		if !ok {
			return nil, 0, fmt.Errorf("routing: internal error: missing label (%d,%d,%d) during CSP reconstruction", v, c, e)
		}
		v, c, e = l.parentV, l.parentC, l.parentE
	}
	csp := make([]CSPEntry, len(rev))
	for i := range rev {
		csp[i] = rev[len(rev)-1-i]
	}
	return csp, best.dist, nil
}

// clusterBorders lists the border proxies of cluster c visible in the view,
// sorted for determinism.
func (r *HierarchicalRouter) clusterBorders(c int) []int {
	seen := make(map[int]bool)
	for other := 0; other < r.View.NumClusters; other++ {
		if other == c {
			continue
		}
		inC, _, err := r.View.Border(c, other)
		if err != nil {
			continue
		}
		seen[inC] = true
	}
	out := make([]int, 0, len(seen))
	for node := range seen {
		out = append(out, node)
	}
	sort.Ints(out)
	return out
}

// externalLink returns the embedded length of the external link between two
// distinct clusters, from the view's border coordinates.
func (r *HierarchicalRouter) externalLink(a, b int) (float64, error) {
	u, v, err := r.View.Border(a, b)
	if err != nil {
		return 0, err
	}
	return r.View.Dist(u, v)
}

// sgTopoOrder topologically orders the service-graph vertices.
func sgTopoOrder(sg *svc.Graph) ([]int, error) {
	n := sg.Len()
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range sg.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("routing: service graph contains a cycle")
	}
	return order, nil
}
