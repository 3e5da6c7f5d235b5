package coords

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/par"
)

// Measurer is the measurement capability the GNP pipeline needs from the
// underlying network: a noisy end-to-end delay probe that takes the minimum
// of several measurements. *netsim.Network satisfies it.
type Measurer interface {
	MeasureMin(rng *rand.Rand, u, v, probes int) (float64, error)
}

// BuildMap executes the paper's complete §3.1 procedure:
//
//  1. the landmark nodes measure their pairwise distances (minimum of
//     `probes` probes each) and are embedded into a dim-dimensional space;
//  2. every node in nodes measures its distance to each landmark and derives
//     its own coordinates.
//
// landmarks and nodes hold physical node IDs understood by the Measurer.
// The returned Map's Points are aligned with nodes (Points[i] belongs to
// nodes[i]); the landmark coordinates are returned separately. Landmarks
// only serve as reference points and take no further part in the overlay
// (§3.1), so they are not included in the Map.
//
// Determinism contract: every rng draw — landmark measurements, per-node
// measurements, per-node placement jitters — happens sequentially on the
// calling goroutine; only the rng-free Nelder–Mead solves fan out on the
// par pool, and their results merge by node index. The returned map is
// therefore bit-identical for any GOMAXPROCS.
func BuildMap(rng *rand.Rand, m Measurer, landmarks, nodes []int, dim, probes int) (*Map, []Point, error) {
	if rng == nil {
		return nil, nil, errors.New("coords: nil rng")
	}
	if m == nil {
		return nil, nil, errors.New("coords: nil measurer")
	}
	if len(landmarks) < 2 {
		return nil, nil, fmt.Errorf("coords: need at least 2 landmarks, got %d", len(landmarks))
	}
	if len(nodes) == 0 {
		return nil, nil, errors.New("coords: no nodes to place")
	}
	if probes < 1 {
		return nil, nil, fmt.Errorf("coords: probe count %d must be >= 1", probes)
	}

	// Phase 1: landmark embedding.
	lm := len(landmarks)
	dists := make([][]float64, lm)
	for i := range dists {
		dists[i] = make([]float64, lm)
	}
	for i := 0; i < lm; i++ {
		for j := i + 1; j < lm; j++ {
			d, err := m.MeasureMin(rng, landmarks[i], landmarks[j], probes)
			if err != nil {
				return nil, nil, fmt.Errorf("coords: measuring landmarks %d-%d: %w", landmarks[i], landmarks[j], err)
			}
			dists[i][j] = d
			dists[j][i] = d
		}
	}
	lmPoints, err := EmbedLandmarks(rng, dists, dim)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: place every overlay node relative to the landmarks.
	// Measurements and placement jitters draw from rng sequentially per
	// node; the rng-free solves then fan out.
	problems := make([]*placementProblem, len(nodes))
	nodeDists := make([]float64, lm)
	for i, node := range nodes {
		for j, l := range landmarks {
			d, err := m.MeasureMin(rng, node, l, probes)
			if err != nil {
				return nil, nil, fmt.Errorf("coords: measuring node %d to landmark %d: %w", node, l, err)
			}
			nodeDists[j] = d
		}
		p, err := newPlacementProblem(rng, lmPoints, nodeDists)
		if err != nil {
			return nil, nil, fmt.Errorf("coords: placing node %d: %w", node, err)
		}
		problems[i] = p
	}
	points := make([]Point, len(nodes))
	if err := par.ForErr(len(nodes), func(i int) error {
		p, err := problems[i].solve()
		if err != nil {
			return fmt.Errorf("coords: placing node %d: %w", nodes[i], err)
		}
		points[i] = p
		return nil
	}); err != nil {
		return nil, nil, err
	}
	cmap, err := NewMap(points)
	if err != nil {
		return nil, nil, err
	}
	return cmap, lmPoints, nil
}
