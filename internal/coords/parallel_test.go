package coords

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBuildMapWorkersBitIdentical is the determinism contract's hard gate:
// the map, the landmark points, AND the rng stream left behind must all be
// exactly what the serial path produces, for several worker counts.
func TestBuildMapWorkersBitIdentical(t *testing.T) {
	net := buildNetwork(t, 30)
	pool := net.Topology().StubNodes()
	pick := pickNodes(rand.New(rand.NewSource(31)), pool, 40)
	landmarks, nodes := pick[:8], pick[8:]

	run := func(workers int) (*Map, []Point, float64) {
		rng := rand.New(rand.NewSource(77))
		cmap, lm, err := BuildMapWorkers(rng, net, landmarks, nodes, 2, 3, workers)
		if err != nil {
			t.Fatalf("BuildMapWorkers(%d): %v", workers, err)
		}
		// The next draw exposes any divergence in rng consumption.
		return cmap, lm, rng.Float64()
	}

	wantMap, wantLM, wantNext := run(1)
	for _, workers := range []int{2, 4, -1} {
		gotMap, gotLM, gotNext := run(workers)
		if !reflect.DeepEqual(gotMap, wantMap) {
			t.Errorf("workers=%d: map differs from serial build", workers)
		}
		if !reflect.DeepEqual(gotLM, wantLM) {
			t.Errorf("workers=%d: landmark points differ from serial build", workers)
		}
		//hfcvet:ignore floatdist identical rng streams must produce identical draws bit-for-bit
		if gotNext != wantNext {
			t.Errorf("workers=%d: rng stream diverged (next draw %v, want %v)", workers, gotNext, wantNext)
		}
	}
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
	run := func(workers int) []Point {
		rng := rand.New(rand.NewSource(5))
		pts, err := EmbedLandmarksWorkers(rng, dists, 2, workers)
		if err != nil {
			t.Fatalf("EmbedLandmarksWorkers(%d): %v", workers, err)
		}
		return pts
	}
	want := run(1)
	for _, workers := range []int{2, -1} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: embedding differs from serial", workers)
		}
	}
}
