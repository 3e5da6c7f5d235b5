package coords

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := Dist(a, b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Dist(a, a); d != 0 {
		t.Errorf("Dist(a,a) = %v, want 0", d)
	}
}

func TestDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dist with mismatched dims did not panic")
		}
	}()
	Dist(Point{1}, Point{1, 2})
}

func TestPointClone(t *testing.T) {
	p := Point{1, 2}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

// planarDistMatrix builds the exact pairwise distance matrix of random
// points in the plane — a perfectly embeddable input.
func planarDistMatrix(rng *rand.Rand, m int, scale float64) ([][]float64, []Point) {
	pts := make([]Point, m)
	for i := range pts {
		pts[i] = Point{rng.Float64() * scale, rng.Float64() * scale}
	}
	d := make([][]float64, m)
	for i := range d {
		d[i] = make([]float64, m)
		for j := range d[i] {
			d[i][j] = Dist(pts[i], pts[j])
		}
	}
	return d, pts
}

func TestEmbedLandmarksRecoversPlanarDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists, _ := planarDistMatrix(rng, 8, 100)
	pts, err := EmbedLandmarks(rng, dists, 2)
	if err != nil {
		t.Fatalf("EmbedLandmarks: %v", err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	// Embedding is only unique up to isometry, so compare distances.
	var worst float64
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			re := RelativeError(Dist(pts[i], pts[j]), dists[i][j])
			if re > worst {
				worst = re
			}
		}
	}
	if worst > 0.05 {
		t.Errorf("worst pairwise relative error %.4f, want <= 0.05", worst)
	}
}

func TestEmbedLandmarksValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok, _ := planarDistMatrix(rng, 4, 10)

	if _, err := EmbedLandmarks(nil, ok, 2); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := EmbedLandmarks(rng, ok, 0); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := EmbedLandmarks(rng, [][]float64{{0}}, 2); err == nil {
		t.Error("single landmark accepted")
	}
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := EmbedLandmarks(rng, ragged, 2); err == nil {
		t.Error("ragged matrix accepted")
	}
	negDiag := [][]float64{{1, 1}, {1, 0}}
	if _, err := EmbedLandmarks(rng, negDiag, 2); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	negOff := [][]float64{{0, -1}, {-1, 0}}
	if _, err := EmbedLandmarks(rng, negOff, 2); err == nil {
		t.Error("negative distance accepted")
	}
	asym := [][]float64{{0, 1}, {2, 0}}
	if _, err := EmbedLandmarks(rng, asym, 2); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestPlaceNodeRecoversPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	landmarks := []Point{{0, 0}, {100, 0}, {0, 100}, {100, 100}, {50, 20}}
	truth := Point{37, 61}
	dists := make([]float64, len(landmarks))
	for i, lm := range landmarks {
		dists[i] = Dist(truth, lm)
	}
	got, err := PlaceNode(rng, landmarks, dists)
	if err != nil {
		t.Fatalf("PlaceNode: %v", err)
	}
	if d := Dist(got, truth); d > 1 {
		t.Errorf("placed at %v, want near %v (off by %v)", got, truth, d)
	}
}

func TestPlaceNodeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lms := []Point{{0, 0}, {1, 0}}
	if _, err := PlaceNode(nil, lms, []float64{1, 1}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := PlaceNode(rng, lms[:1], []float64{1}); err == nil {
		t.Error("single landmark accepted")
	}
	if _, err := PlaceNode(rng, lms, []float64{1}); err == nil {
		t.Error("distance count mismatch accepted")
	}
	if _, err := PlaceNode(rng, lms, []float64{1, -2}); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := PlaceNode(rng, lms, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN distance accepted")
	}
	bad := []Point{{0, 0}, {1}}
	if _, err := PlaceNode(rng, bad, []float64{1, 1}); err == nil {
		t.Error("mixed-dimension landmarks accepted")
	}
}

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(nil); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := NewMap([]Point{{}}); err == nil {
		t.Error("zero-dimensional points accepted")
	}
	if _, err := NewMap([]Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dimensions accepted")
	}
	m, err := NewMap([]Point{{0, 0}, {3, 4}})
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if m.N() != 2 || m.Dim != 2 {
		t.Errorf("N=%d Dim=%d, want 2,2", m.N(), m.Dim)
	}
	if m.Dist(0, 1) != 5 {
		t.Errorf("Dist(0,1) = %v, want 5", m.Dist(0, 1))
	}
}

func TestMapDistSymmetryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.NormFloat64() * 50, rng.NormFloat64() * 50, rng.NormFloat64() * 50}
		}
		m, err := NewMap(pts)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Dist(i, j) != m.Dist(j, i) {
					return false
				}
				// Triangle inequality holds exactly in Euclidean space.
				for k := 0; k < n; k++ {
					if m.Dist(i, j) > m.Dist(i, k)+m.Dist(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRelativeError(t *testing.T) {
	if re := RelativeError(110, 100); math.Abs(re-0.1) > 1e-6 {
		t.Errorf("RelativeError(110,100) = %v, want 0.1", re)
	}
	if re := RelativeError(0, 0); re != 0 {
		t.Errorf("RelativeError(0,0) = %v, want 0", re)
	}
}
