package hfc

import (
	"math/rand"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/par/partest"
)

// randomClusteredInstance generates n points in k well-separated blobs with
// an explicit assignment — a quick way to make realistic Build inputs.
func randomClusteredInstance(rng *rand.Rand, n, k int) (*coords.Map, *cluster.Result) {
	pts := make([]coords.Point, n)
	assignment := make([]int, n)
	for i := range pts {
		c := i % k
		assignment[i] = c
		pts[i] = coords.Point{
			float64(c%4)*300 + rng.Float64()*40,
			float64(c/4)*300 + rng.Float64()*40,
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		panic(err)
	}
	return cmap, manualClustering(assignment)
}

// TestBuildParallelBitIdentical asserts the fan-out's hard gate: the border
// construction produces deeply equal topologies for every pool size,
// across several instances — one below the indexed-election threshold's
// reach (brute scans) and one at it (per-cluster geo indexes).
func TestBuildParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := [][2]int{{borderIndexMinN, 4}}
	for trial := 0; trial < 5; trial++ {
		sizes = append(sizes, [2]int{24 + rng.Intn(60), 2 + rng.Intn(6)})
	}
	for _, nk := range sizes {
		cmap, clustering := randomClusteredInstance(rng, nk[0], nk[1])
		partest.EachPool(t, 0, func(*rand.Rand) (*Topology, error) {
			return Build(cmap, clustering)
		})
	}
}

// TestBuildParallelValidation: with a pool to fan out on, bad inputs are
// still rejected before anything dereferences them.
func TestBuildParallelValidation(t *testing.T) {
	partest.SetProcs(t, 2)
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(1)), 12, 3)
	if _, err := Build(nil, clustering); err == nil {
		t.Error("nil map accepted")
	}
	if _, err := Build(cmap, nil); err == nil {
		t.Error("nil clustering accepted")
	}
	short := manualClustering([]int{0, 0, 1})
	if _, err := Build(cmap, short); err == nil {
		t.Error("mismatched clustering accepted")
	}
}
