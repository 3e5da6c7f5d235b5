package mlhfc

import (
	"math/rand"
	"testing"

	"hfc/internal/par/partest"
)

// TestBuildBitIdenticalAcrossPools: the fan-outs of BuildFromGrouping —
// interior HFC per group (each fanning out again inside hfc.Build) and the
// super tier's own hfc.Build over the groups, one election per group pair —
// give the same groups, the same interior topologies and the same super tier
// (EachPool compares the whole Topology, super included) under every pool
// size.
func TestBuildBitIdenticalAcrossPools(t *testing.T) {
	cmap := triWorld(t, rand.New(rand.NewSource(9)), 5, 4, 8)
	topo := partest.EachPool(t, 0, func(*rand.Rand) (*Topology, error) {
		return Build(cmap, DefaultConfig())
	})
	if topo.NumGroups() != 5 {
		t.Fatalf("groups = %d, want the 5 regions: the fan-outs had nothing to split", topo.NumGroups())
	}
}
