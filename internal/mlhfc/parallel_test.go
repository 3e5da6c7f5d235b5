package mlhfc

import (
	"math/rand"
	"testing"

	"hfc/internal/par/partest"
)

// TestBuildBitIdenticalAcrossPools: the three fan-outs of
// BuildFromGrouping — interior HFC per group (each fanning out again
// inside hfc.Build), one spatial index per group, one super-border scan per
// group pair — give the same groups, the same interior topologies and the
// same super-border table under every pool size.
func TestBuildBitIdenticalAcrossPools(t *testing.T) {
	cmap := triWorld(t, rand.New(rand.NewSource(9)), 5, 4, 8)
	topo := partest.EachPool(t, 0, func(*rand.Rand) (*Topology, error) {
		return Build(cmap, DefaultConfig())
	})
	if topo.NumGroups() != 5 {
		t.Fatalf("groups = %d, want the 5 regions: the fan-outs had nothing to split", topo.NumGroups())
	}
}
