// Package coords implements landmark-based network coordinates in the style
// of GNP (Ng & Zhang, "Predicting Internet Network Distance with
// Coordinates-Based Approaches", INFOCOM 2002), which the paper adopts in
// §3.1 for obtaining a complete distance map with O(m² + nm) measurements:
//
//  1. m landmarks measure their pairwise distances and are embedded into a
//     k-dimensional geometric space by function minimization;
//  2. every ordinary proxy measures its distance to the landmarks and
//     derives its own coordinates relative to them.
//
// The function minimizer is the Nelder–Mead simplex from internal/optimize,
// the method the paper cites ([23]).
package coords

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hfc/internal/optimize"
	"hfc/internal/par"
)

// Point is a position in the k-dimensional embedding space.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point { return append(Point(nil), p...) }

// Dist returns the Euclidean distance between two points of equal dimension.
// It panics on dimension mismatch, which indicates a programming error.
func Dist(a, b Point) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("coords: dimension mismatch %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// relErrEps regularizes relative-error terms when a measured distance is
// (near) zero.
const relErrEps = 1e-6

// EmbedLandmarks maps m landmarks into a dim-dimensional space such that
// pairwise Euclidean distances approximate the measured distance matrix. The
// objective is the sum of squared relative errors over all landmark pairs,
// the standard GNP criterion. Multiple random restarts (scaled to the
// distance magnitude) guard against poor local minima.
//
// dists must be a symmetric m×m matrix with zero diagonal and positive
// off-diagonal entries.
//
// Every random start is drawn from rng sequentially (in attempt order)
// BEFORE any minimization runs, and the Nelder–Mead solver consumes no
// randomness, so the restarts fan out on the par pool and the result — and
// the rng stream left behind for the caller — is bit-identical for any
// GOMAXPROCS.
func EmbedLandmarks(rng *rand.Rand, dists [][]float64, dim int) ([]Point, error) {
	if rng == nil {
		return nil, errors.New("coords: nil rng")
	}
	m := len(dists)
	if m < 2 {
		return nil, fmt.Errorf("coords: need at least 2 landmarks, got %d", m)
	}
	if dim < 1 {
		return nil, fmt.Errorf("coords: dimension %d must be >= 1", dim)
	}
	maxD := 0.0
	for i, row := range dists {
		if len(row) != m {
			return nil, fmt.Errorf("coords: distance matrix row %d has %d entries, want %d", i, len(row), m)
		}
		for j, d := range row {
			if i == j {
				if d != 0 {
					return nil, fmt.Errorf("coords: nonzero diagonal entry dists[%d][%d] = %v", i, j, d)
				}
				continue
			}
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("coords: invalid distance dists[%d][%d] = %v", i, j, d)
			}
			if math.Abs(d-dists[j][i]) > 1e-9*math.Max(1, d) {
				return nil, fmt.Errorf("coords: asymmetric distances dists[%d][%d]=%v dists[%d][%d]=%v", i, j, d, j, i, dists[j][i])
			}
			if d > maxD {
				maxD = d
			}
		}
	}

	objective := func(x []float64) float64 {
		sum := 0.0
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				pred := pointDist(x, i, j, dim)
				actual := dists[i][j]
				rel := (pred - actual) / (actual + relErrEps)
				sum += rel * rel
			}
		}
		return sum
	}

	// Draw every random start up front (sequentially, in attempt order) so
	// the minimizations are pure and can fan out across workers without
	// perturbing the rng stream.
	const attempts = 4
	starts := make([][]float64, attempts)
	for a := range starts {
		x0 := make([]float64, m*dim)
		for i := range x0 {
			x0[i] = (rng.Float64() - 0.5) * maxD
		}
		starts[a] = x0
	}
	results := make([]optimize.Result, attempts)
	if err := par.ForErr(attempts, func(a int) error {
		res, err := optimize.Minimize(objective, starts[a], optimize.Options{
			InitialStep: maxD / 4,
			Restarts:    2,
			MaxIter:     4000 * m * dim,
		})
		if err != nil {
			return fmt.Errorf("coords: landmark embedding: %w", err)
		}
		results[a] = res
		return nil
	}); err != nil {
		return nil, err
	}
	// Merge in attempt order with strict <, so ties resolve toward the
	// earlier attempt.
	best := results[0]
	for _, res := range results[1:] {
		if res.F < best.F {
			best = res
		}
	}

	pts := make([]Point, m)
	for i := 0; i < m; i++ {
		pts[i] = Point(append([]float64(nil), best.X[i*dim:(i+1)*dim]...))
	}
	return pts, nil
}

// pointDist computes the Euclidean distance between the i-th and j-th
// dim-sized blocks of the flat coordinate vector x.
func pointDist(x []float64, i, j, dim int) float64 {
	sum := 0.0
	for d := 0; d < dim; d++ {
		diff := x[i*dim+d] - x[j*dim+d]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

// placementAttempts is how many starts PlaceNode tries: the landmark
// centroid plus two random perturbations of it.
const placementAttempts = 3

// placementProblem is one node's GNP phase-2 placement with every random
// start already drawn: Solve is pure (the Nelder–Mead solver consumes no
// randomness), so problems built sequentially can be solved on any number
// of workers with bit-identical results.
type placementProblem struct {
	landmarks []Point
	dists     []float64
	maxD      float64
	starts    [][]float64
}

// newPlacementProblem validates the inputs and draws the random starts in
// the exact order the serial PlaceNode loop used to: the centroid start
// first (no draws), then dim jitter values for each of the two remaining
// attempts. dists is copied, so callers may reuse their buffer.
func newPlacementProblem(rng *rand.Rand, landmarks []Point, dists []float64) (*placementProblem, error) {
	if rng == nil {
		return nil, errors.New("coords: nil rng")
	}
	if len(landmarks) < 2 {
		return nil, fmt.Errorf("coords: need at least 2 landmarks, got %d", len(landmarks))
	}
	if len(dists) != len(landmarks) {
		return nil, fmt.Errorf("coords: %d distances for %d landmarks", len(dists), len(landmarks))
	}
	dim := len(landmarks[0])
	maxD := 0.0
	for i, lm := range landmarks {
		if len(lm) != dim {
			return nil, fmt.Errorf("coords: landmark %d has dimension %d, want %d", i, len(lm), dim)
		}
		if dists[i] < 0 || math.IsNaN(dists[i]) || math.IsInf(dists[i], 0) {
			return nil, fmt.Errorf("coords: invalid distance to landmark %d: %v", i, dists[i])
		}
		if dists[i] > maxD {
			maxD = dists[i]
		}
	}
	p := &placementProblem{
		landmarks: landmarks,
		dists:     append([]float64(nil), dists...),
		maxD:      maxD,
		starts:    make([][]float64, placementAttempts),
	}
	centroid := make([]float64, dim)
	for _, lm := range landmarks {
		for d := 0; d < dim; d++ {
			centroid[d] += lm[d] / float64(len(landmarks))
		}
	}
	for a := 0; a < placementAttempts; a++ {
		x0 := append([]float64(nil), centroid...)
		if a > 0 {
			for d := 0; d < dim; d++ {
				x0[d] += (rng.Float64() - 0.5) * maxD
			}
		}
		p.starts[a] = x0
	}
	return p, nil
}

// solve runs the minimization over the pre-drawn starts and keeps the best
// result (strict <, so ties resolve toward the earlier attempt, exactly
// like the serial loop).
func (p *placementProblem) solve() (Point, error) {
	dim := len(p.landmarks[0])
	objective := func(x []float64) float64 {
		sum := 0.0
		for i, lm := range p.landmarks {
			pred := 0.0
			for d := 0; d < dim; d++ {
				diff := x[d] - lm[d]
				pred += diff * diff
			}
			pred = math.Sqrt(pred)
			rel := (pred - p.dists[i]) / (p.dists[i] + relErrEps)
			sum += rel * rel
		}
		return sum
	}
	var best optimize.Result
	bestSet := false
	for _, x0 := range p.starts {
		res, err := optimize.Minimize(objective, x0, optimize.Options{
			InitialStep: math.Max(p.maxD/4, 1),
			Restarts:    1,
		})
		if err != nil {
			return nil, fmt.Errorf("coords: node placement: %w", err)
		}
		if !bestSet || res.F < best.F {
			best = res
			bestSet = true
		}
	}
	return Point(best.X), nil
}

// PlaceNode derives the coordinates of a single node from its measured
// distances to the landmarks (one per landmark, aligned by index), again by
// minimizing the sum of squared relative errors. This is the second GNP
// phase: each ordinary proxy solves this small problem for itself.
func PlaceNode(rng *rand.Rand, landmarks []Point, dists []float64) (Point, error) {
	p, err := newPlacementProblem(rng, landmarks, dists)
	if err != nil {
		return nil, err
	}
	return p.solve()
}

// Map is a completed distance map: the embedded coordinates of every overlay
// node, indexed by overlay node index. It satisfies the clustering and
// routing layers' need for an O(kn)-state distance oracle.
type Map struct {
	// Points holds one coordinate per overlay node.
	Points []Point
	// Dim is the embedding dimension.
	Dim int
}

// NewMap validates and wraps a coordinate list. Every coordinate must be
// finite: clustering and border election would build a valid-looking topology
// around a NaN or infinite point, which compares false against everything.
func NewMap(points []Point) (*Map, error) {
	if len(points) == 0 {
		return nil, errors.New("coords: empty coordinate map")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("coords: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("coords: point %d has dimension %d, want %d", i, len(p), dim)
		}
		for axis, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("coords: point %d has non-finite coordinate %v on axis %d", i, x, axis)
			}
		}
	}
	return &Map{Points: points, Dim: dim}, nil
}

// N returns the number of mapped nodes.
func (m *Map) N() int { return len(m.Points) }

// Dist returns the predicted distance between overlay nodes i and j.
func (m *Map) Dist(i, j int) float64 { return Dist(m.Points[i], m.Points[j]) }

// RelativeError quantifies embedding quality for a pair: |pred − actual| /
// actual (using the regularized denominator for tiny actuals).
func RelativeError(pred, actual float64) float64 {
	return math.Abs(pred-actual) / (actual + relErrEps)
}
