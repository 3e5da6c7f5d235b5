package mlhfc

import (
	"math/rand"
	"os"
	"testing"
)

// TestSuperBorderMatchesBruteScan pins the geo-engine equivalence the build
// relies on: the super tier is hfc.Build over the groups, and its indexed
// closest-pair election for every super-border must produce exactly the pair
// a brute first-minimum scan over the sorted group members elects, tie rule
// included. The world is large enough (hundreds of nodes per group) that
// the election actually builds spatial indexes rather than falling back to
// brute internally; under HFC_SIM_SCALE=1 it is also checked at the 100k
// drill's size.
func TestSuperBorderMatchesBruteScan(t *testing.T) {
	type world struct {
		name               string
		groups, blobs, per int
	}
	worlds := []world{{"n=640", 4, 4, 40}}
	if os.Getenv("HFC_SIM_SCALE") != "" {
		worlds = append(worlds, world{"n=100k", 46, 46, 48})
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			cmap := triWorld(t, rng, w.groups, w.blobs, w.per)
			cfg := DefaultConfig()
			cfg.Inner.Points = cmap.Points
			cfg.TargetGroups = w.groups
			topo, err := Build(cmap, cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			k := topo.NumGroups()
			if k != w.groups {
				t.Fatalf("got %d groups, want %d", k, w.groups)
			}
			for a := 0; a < k; a++ {
				for b := a + 1; b < k; b++ {
					// Brute reference: first minimum over sorted members of a × b.
					best := -1.0
					bu, bv := -1, -1
					for _, u := range topo.Members(a) {
						for _, v := range topo.Members(b) {
							if d := cmap.Dist(u, v); best < 0 || d < best {
								best, bu, bv = d, u, v
							}
						}
					}
					gu, gv, err := topo.SuperBorder(a, b)
					if err != nil {
						t.Fatalf("SuperBorder(%d,%d): %v", a, b, err)
					}
					if gu != bu || gv != bv {
						t.Errorf("super-border (%d,%d): indexed (%d,%d), brute (%d,%d) at dist %v",
							a, b, gu, gv, bu, bv, best)
					}
				}
			}
		})
	}
}
