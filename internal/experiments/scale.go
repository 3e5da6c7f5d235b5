package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
)

// ScaleRow is one overlay size of the construction-scaling sweep: wall
// times for Zahn's clustering and the §3.3 border elections over the
// geometric engine, with no O(n²) distance matrix ever materialised.
type ScaleRow struct {
	N        int
	Clusters int
	// ClusterTime covers cluster.Cluster end to end (k-d construction,
	// Borůvka MST rounds, inconsistent-edge cut, small-cluster merge).
	ClusterTime time.Duration
	// BorderTime covers hfc.Build end to end (per-cluster indexes plus
	// every pairwise border election).
	BorderTime time.Duration
}

// Total is the combined construction time for the row.
func (r ScaleRow) Total() time.Duration { return r.ClusterTime + r.BorderTime }

// scalePoints draws n proxies from a fixed set of Gaussian-ish blobs in a
// 1000-unit GNP square — the same shape the BenchmarkGate* geometric
// benchmarks use, so the sweep and the gates measure one workload family.
func scalePoints(rng *rand.Rand, n int) []coords.Point {
	const blobs = 16
	centers := make([]coords.Point, blobs)
	for b := range centers {
		centers[b] = coords.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	pts := make([]coords.Point, n)
	for i := range pts {
		c := centers[i%blobs]
		pts[i] = coords.Point{c[0] + rng.NormFloat64()*18, c[1] + rng.NormFloat64()*18}
	}
	return pts
}

// RunScale measures end-to-end overlay construction — clustering plus
// border election — at each requested size over the spatial-index engine.
// Distances come straight from coordinates (coords.Map.Dist); no dense
// matrix is ever built, which is what lets the n=100k row complete in
// memory a complete graph could not.
func RunScale(seed int64, sizes []int) ([]ScaleRow, error) {
	if len(sizes) == 0 {
		return nil, errors.New("experiments: no scale sizes")
	}
	rows := make([]ScaleRow, 0, len(sizes))
	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: scale size %d must be >= 2", n)
		}
		rng := rand.New(rand.NewSource(seed))
		pts := scalePoints(rng, n)
		cmap, err := coords.NewMap(pts)
		if err != nil {
			return nil, err
		}

		//hfcvet:ignore detrand wall-clock construction timing column; no seeded state consumes it
		start := time.Now()
		clustering, err := cluster.Cluster(n, cmap.Dist, cluster.Config{
			Points:         cmap.Points,
			MinClusterSize: 8,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scale n=%d cluster: %w", n, err)
		}
		clusterTime := time.Since(start)

		//hfcvet:ignore detrand wall-clock construction timing column; no seeded state consumes it
		start = time.Now()
		topo, err := hfc.Build(cmap, clustering)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale n=%d hfc: %w", n, err)
		}
		borderTime := time.Since(start)
		// Validate re-elects every border with the brute O(|A|·|B|) scan;
		// it is the right sanity check at small n but would dwarf the
		// measured construction itself at the larger sizes (the indexed =
		// brute equivalence there is covered by the property tests).
		if n <= 10_000 {
			if err := topo.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: scale n=%d validate: %w", n, err)
			}
		}

		rows = append(rows, ScaleRow{
			N:           n,
			Clusters:    clustering.NumClusters(),
			ClusterTime: clusterTime,
			BorderTime:  borderTime,
		})
	}
	return rows, nil
}

// FormatScale renders the sweep as the README's scaling table.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Construction scaling (geometric engine, no dense matrix)\n")
	b.WriteString("| proxies | clusters | clustering | border election | total |\n")
	b.WriteString("|---------|----------|------------|-----------------|-------|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %d | %s | %s | %s |\n",
			r.N, r.Clusters,
			r.ClusterTime.Round(time.Millisecond),
			r.BorderTime.Round(time.Millisecond),
			r.Total().Round(time.Millisecond))
	}
	return b.String()
}
