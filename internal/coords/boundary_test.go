package coords_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
)

// TestNewMapBoundary is the coordinate boundary of the build pipeline: a
// non-finite coordinate is refused at NewMap with an error naming the point
// and axis (it used to build K = 1 or K = 2 topologies that validated), and
// the degenerate maps that are right — coincident points, one point, two
// points — build one valid cluster.
func TestNewMapBoundary(t *testing.T) {
	six := func(bad float64) []coords.Point {
		pts := []coords.Point{{0, 0}, {1, 0}, {0, 1}, {50, 50}, {51, 50}, {50, 51}}
		pts[4][1] = bad
		return pts
	}
	for _, tc := range []struct {
		name    string
		points  []coords.Point
		wantErr string // substring of NewMap's error; empty = builds K = 1
	}{
		{"NaN coordinate", six(math.NaN()), "point 4 has non-finite coordinate NaN on axis 1"},
		{"+Inf coordinate", six(math.Inf(1)), "point 4 has non-finite coordinate +Inf on axis 1"},
		{"-Inf coordinate", six(math.Inf(-1)), "point 4 has non-finite coordinate -Inf on axis 1"},
		{"all points coincident", []coords.Point{{3, 4}, {3, 4}, {3, 4}, {3, 4}, {3, 4}, {3, 4}}, ""},
		{"a single point", []coords.Point{{3, 4}}, ""},
		{"two points", []coords.Point{{0, 0}, {3, 4}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmap, err := coords.NewMap(tc.points)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("NewMap error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewMap: %v", err)
			}
			k, err := clustersOf(cmap)
			if err != nil {
				t.Fatal(err)
			}
			if k != 1 {
				t.Errorf("built %d clusters, want 1", k)
			}
		})
	}
}

// clustersOf runs a map through clustering, border election and validation
// and returns the cluster count.
func clustersOf(cmap *coords.Map) (int, error) {
	res, err := cluster.Cluster(cmap.N(), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		return 0, fmt.Errorf("Cluster: %w", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		return 0, fmt.Errorf("Build: %w", err)
	}
	if err := topo.Validate(); err != nil {
		return 0, fmt.Errorf("Validate: %w", err)
	}
	return topo.NumClusters(), nil
}
