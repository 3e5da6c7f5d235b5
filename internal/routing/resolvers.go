package routing

import (
	"hfc/internal/hfc"
)

// ResolverCandidates lists, in preference order, the proxies of
// child.Cluster that the view's owner can legitimately address to resolve
// the child request: the designated resolver first, then every other
// member of the cluster the view knows. Any member works — intra-cluster
// flooding gives every member the full SCT_P — but the view only knows
// foreign clusters through their border proxies, so:
//
//   - for the view's own cluster, the alternates are the remaining cluster
//     members (sorted);
//   - for a foreign cluster, the alternates are its border proxies toward
//     every other cluster, in cluster-ID order.
//
// The caller retries down this list when the resolver at the front fails
// to answer (crashed or unreachable) — the §5 conquer phase's failover.
func ResolverCandidates(view *hfc.NodeView, child ChildRequest) []int {
	out := []int{child.Resolver}
	seen := map[int]bool{child.Resolver: true}
	add := func(n int) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if child.Cluster == view.ClusterID {
		for _, m := range view.Members {
			add(m)
		}
		return out
	}
	for other := 0; other < view.NumClusters; other++ {
		if other == child.Cluster {
			continue
		}
		if inC, _, err := view.Border(child.Cluster, other); err == nil {
			add(inC)
		}
	}
	return out
}
