package mesh

import (
	"math/rand"
	"testing"

	"hfc/internal/par/partest"
)

// TestRoutingTablesBitIdenticalAcrossPools: the per-source shortest-path
// trees fan out after the rng-drawing link construction, so the links, the
// relay sequence Path(u, v) of every pair, and the rng stream left for the
// caller are the same under every pool size.
func TestRoutingTablesBitIdenticalAcrossPools(t *testing.T) {
	cmap := randomMap(t, rand.New(rand.NewSource(3)), 120)
	type built struct {
		Mesh  *Mesh
		Paths [][]int
	}
	partest.EachPool(t, 17, func(rng *rand.Rand) (built, error) {
		m, err := Build(rng, cmap, DefaultConfig())
		if err != nil {
			return built{}, err
		}
		b := built{Mesh: m}
		for u := 0; u < m.N(); u++ {
			for v := 0; v < m.N(); v++ {
				p, err := m.Path(u, v)
				if err != nil {
					return built{}, err
				}
				b.Paths = append(b.Paths, p)
			}
		}
		return b, nil
	})
}
