package hfc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hfc/internal/cluster"
	"hfc/internal/coords"
)

// BorderSelector chooses the border pair between two clusters given their
// member lists. The first returned node must belong to membersA and the
// second to membersB. The paper's rule (§3.3) is ClosestPairSelector; the
// alternatives exist for the ablation study of the design choice.
type BorderSelector func(cmap *coords.Map, membersA, membersB []int) (BorderPair, error)

// ClosestPairSelector implements §3.3: the minimum-distance cross pair.
func ClosestPairSelector() BorderSelector {
	return func(cmap *coords.Map, membersA, membersB []int) (BorderPair, error) {
		return closestPair(cmap, membersA, membersB)
	}
}

// RandomPairSelector picks a uniform random cross pair — the strawman that
// quantifies how much the closest-pair rule buys.
func RandomPairSelector(rng *rand.Rand) BorderSelector {
	return func(cmap *coords.Map, membersA, membersB []int) (BorderPair, error) {
		if len(membersA) == 0 || len(membersB) == 0 {
			return BorderPair{}, errors.New("hfc: empty cluster")
		}
		return BorderPair{
			Low:  membersA[rng.Intn(len(membersA))],
			High: membersB[rng.Intn(len(membersB))],
		}, nil
	}
}

// HeadSelector models the classical single-logical-node aggregation the
// paper argues against (§3, citing [19][20]): each cluster is represented
// by one head — the member closest to the cluster centroid — which serves
// as its border toward every other cluster.
func HeadSelector() BorderSelector {
	heads := make(map[string]int)
	headOf := func(cmap *coords.Map, members []int) (int, error) {
		if len(members) == 0 {
			return 0, errors.New("hfc: empty cluster")
		}
		key := fmt.Sprint(members[0], len(members))
		if h, ok := heads[key]; ok {
			return h, nil
		}
		dim := cmap.Dim
		centroid := make(coords.Point, dim)
		for _, m := range members {
			for d := 0; d < dim; d++ {
				centroid[d] += cmap.Points[m][d] / float64(len(members))
			}
		}
		best, bestD := members[0], math.Inf(1)
		for _, m := range members {
			if d := coords.Dist(cmap.Points[m], centroid); d < bestD {
				best, bestD = m, d
			}
		}
		heads[key] = best
		return best, nil
	}
	return func(cmap *coords.Map, membersA, membersB []int) (BorderPair, error) {
		a, err := headOf(cmap, membersA)
		if err != nil {
			return BorderPair{}, err
		}
		b, err := headOf(cmap, membersB)
		if err != nil {
			return BorderPair{}, err
		}
		return BorderPair{Low: a, High: b}, nil
	}
}

// BuildWithSelector constructs an HFC topology using a custom border
// selector; Build is equivalent to BuildWithSelector(…, ClosestPairSelector()).
// The selector runs once per cluster pair in serial a < b order, because
// the ablation selectors draw from an rng.
func BuildWithSelector(cmap *coords.Map, clustering *cluster.Result, sel BorderSelector) (*Topology, error) {
	if sel == nil {
		return nil, errors.New("hfc: nil border selector")
	}
	if err := checkInputs(cmap, clustering); err != nil {
		return nil, err
	}
	inOrder := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	return assemble(cmap, clustering, inOrder, func(a, b int) (BorderPair, error) {
		return sel(cmap, clustering.Clusters[a], clustering.Clusters[b])
	})
}
