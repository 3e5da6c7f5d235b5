package hfc

import (
	"errors"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/geo"
	"hfc/internal/par"
)

// borderIndexMinN is the overlay size at which the §3.3 border elections
// switch from brute cross scans to the geo engine; below it the scans are
// at least as fast as building per-cluster indexes.
const borderIndexMinN = 512

// clusterIndexMinSize is the smallest cluster worth indexing: pairs whose
// high-side cluster is tinier than this scan brute-force even in an
// indexed build. Below geo's own brute cutover an "index" is just a
// wrapped linear scan, so the floor sits above it — benchmarking the
// n=512 maintenance gates showed indexing 32-member clusters costs ~25%
// for nothing.
const clusterIndexMinSize = 64

// electionIndexes caches one geo index per cluster (over its members) for
// the closest-pair elections. Entries are nil for clusters too small to
// index; a nil *electionIndexes means the whole build runs brute.
type electionIndexes struct {
	idx []geo.Index
}

// forPair returns the index for the high side of a cluster pair, or nil
// when that pair should scan brute-force.
func (e *electionIndexes) forPair(hi int) geo.Index {
	if e == nil {
		return nil
	}
	return e.idx[hi]
}

// buildElectionIndexes constructs the per-cluster indexes on the par pool
// (each slot is private to its cluster, so the fan-out is deterministic).
// It returns nil — meaning brute elections — for small overlays or
// non-finite coordinates.
func buildElectionIndexes(cmap *coords.Map, clustering *cluster.Result) *electionIndexes {
	if cmap.N() < borderIndexMinN || !geo.Finite(cmap.Points) {
		return nil
	}
	e := &electionIndexes{idx: make([]geo.Index, clustering.NumClusters())}
	errs := make([]error, clustering.NumClusters())
	par.For(clustering.NumClusters(), func(c int) {
		if len(clustering.Clusters[c]) < clusterIndexMinSize {
			return
		}
		e.idx[c], errs[c] = geo.NewIndex(cmap.Points, clustering.Clusters[c], geo.Auto)
	})
	for _, err := range errs {
		if err != nil {
			return nil // validated inputs make this unreachable; fall back to brute
		}
	}
	return e
}

// electBorders runs the §3.3 election for one cluster pair: the closest
// cross pair. With a nil index it is exactly the brute closestPair scan;
// with an index it answers through geo.ClosestPairIndexed, which implements
// the same canonical (distance, low node, high node) order, so the results
// are bit-identical (asserted by the 200-seed property test).
func electBorders(cmap *coords.Map, membersA, membersB []int, bIdx geo.Index) (BorderPair, error) {
	if bIdx == nil {
		return closestPair(cmap, membersA, membersB)
	}
	if len(membersA) == 0 || len(membersB) == 0 {
		return BorderPair{}, errors.New("hfc: empty cluster")
	}
	p, ok := geo.ClosestPairIndexed(cmap.Points, membersA, bIdx, nil, nil)
	if !ok {
		return BorderPair{}, errors.New("hfc: empty cluster")
	}
	return BorderPair{Low: p.A, High: p.B}, nil
}
