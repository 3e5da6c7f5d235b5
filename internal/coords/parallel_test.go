package coords

import (
	"math/rand"
	"testing"

	"hfc/internal/par/partest"
)

// TestBuildMapWorkersBitIdentical is the determinism contract's hard gate:
// the map, the landmark points, AND the rng stream left behind must all be
// exactly what the one-worker loop produces, for several pool sizes.
func TestBuildMapWorkersBitIdentical(t *testing.T) {
	net := buildNetwork(t, 30)
	pool := net.Topology().StubNodes()
	pick := pickNodes(rand.New(rand.NewSource(31)), pool, 40)
	landmarks, nodes := pick[:8], pick[8:]

	type built struct {
		Map       *Map
		Landmarks []Point
	}
	partest.EachPool(t, 77, func(rng *rand.Rand) (built, error) {
		cmap, lm, err := BuildMap(rng, net, landmarks, nodes, 2, 3)
		return built{cmap, lm}, err
	})
}

func TestEmbedLandmarksWorkersBitIdentical(t *testing.T) {
	// A synthetic 6-landmark distance matrix.
	base := []Point{{0, 0}, {10, 0}, {0, 10}, {7, 7}, {3, 9}, {12, 4}}
	m := len(base)
	dists := make([][]float64, m)
	for i := range dists {
		dists[i] = make([]float64, m)
		for j := range dists[i] {
			if i != j {
				dists[i][j] = Dist(base[i], base[j])
			}
		}
	}
	partest.EachPool(t, 5, func(rng *rand.Rand) ([]Point, error) {
		return EmbedLandmarks(rng, dists, 2)
	})
}
