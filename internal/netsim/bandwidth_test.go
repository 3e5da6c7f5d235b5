package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hfc/internal/topology"
)

func TestBottleneckBasics(t *testing.T) {
	topo := testTopology(t, 21)
	if topo.BandwidthGraph == nil {
		t.Fatal("transit-stub topology missing bandwidth graph")
	}
	net, err := New(topo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	self, err := net.Bottleneck(3, 3)
	if err != nil {
		t.Fatalf("Bottleneck(3,3): %v", err)
	}
	if !math.IsInf(self, 1) {
		t.Errorf("Bottleneck(3,3) = %v, want +Inf", self)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		u, v := rng.Intn(net.N()), rng.Intn(net.N())
		if u == v {
			continue
		}
		bw, err := net.Bottleneck(u, v)
		if err != nil {
			t.Fatalf("Bottleneck(%d,%d): %v", u, v, err)
		}
		if bw <= 0 || math.IsInf(bw, 1) {
			t.Fatalf("Bottleneck(%d,%d) = %v", u, v, bw)
		}
		// The default bandwidth classes bound every link in [20, 2500].
		if bw < 20 || bw > 2500 {
			t.Fatalf("Bottleneck(%d,%d) = %v outside configured classes", u, v, bw)
		}
	}
}

func TestBottleneckHierarchy(t *testing.T) {
	// Cross-transit-domain routes traverse at least one thin stub access
	// segment on each side, so their bottleneck can never exceed the
	// intra-stub/transit-stub maximum; intra-stub routes are bounded by
	// intra-stub capacity. Statistically, intra-stub pairs should not have
	// lower mean bottleneck than cross-domain pairs.
	topo := testTopology(t, 22)
	net, err := New(topo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var intra, cross []float64
	for i, a := range topo.Nodes {
		for j := i + 1; j < len(topo.Nodes); j += 17 {
			b := topo.Nodes[j]
			if a.Kind != topology.KindStub || b.Kind != topology.KindStub {
				continue
			}
			bw, err := net.Bottleneck(a.ID, b.ID)
			if err != nil {
				t.Fatalf("Bottleneck: %v", err)
			}
			switch {
			case a.StubDomain == b.StubDomain:
				intra = append(intra, bw)
			case a.TransitDomain != b.TransitDomain:
				cross = append(cross, bw)
			}
		}
	}
	if len(intra) == 0 || len(cross) == 0 {
		t.Skip("sampling produced no pairs")
	}
	for _, bw := range cross {
		if bw > 400 { // max transit-stub capacity: every cross path has 2 access links
			t.Fatalf("cross-domain bottleneck %v exceeds access-link ceiling", bw)
		}
	}
}

func TestBottleneckValidation(t *testing.T) {
	topo := testTopology(t, 23)
	net, err := New(topo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := net.Bottleneck(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := net.Bottleneck(0, net.N()); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestBottleneckNoModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	flat, err := topology.GenerateFlatRandom(rng, 20, 0.2, topology.DelayRange{Lo: 1, Hi: 5})
	if err != nil {
		t.Fatalf("GenerateFlatRandom: %v", err)
	}
	net, err := New(flat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := net.Bottleneck(0, 1); !errors.Is(err, ErrNoBandwidthModel) {
		t.Errorf("err = %v, want ErrNoBandwidthModel", err)
	}
}

func TestBottleneckDeterministicAndCached(t *testing.T) {
	topo := testTopology(t, 24)
	net, err := New(topo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, err := net.Bottleneck(5, 100)
	if err != nil {
		t.Fatalf("Bottleneck: %v", err)
	}
	b, err := net.Bottleneck(5, 100)
	if err != nil {
		t.Fatalf("Bottleneck: %v", err)
	}
	if a != b {
		t.Errorf("repeated queries differ: %v vs %v", a, b)
	}
}

func TestLinkBandwidthDirectOnly(t *testing.T) {
	topo := testTopology(t, 25)
	// Pick an actual edge and a non-edge.
	edges := topo.Graph.Edges()
	e := edges[0]
	if bw := topo.LinkBandwidth(e.From, e.To); bw <= 0 {
		t.Errorf("LinkBandwidth of real edge = %v", bw)
	}
	// Find a non-adjacent pair.
	for u := 0; u < topo.N(); u++ {
		for v := 0; v < topo.N(); v++ {
			if u != v && !topo.Graph.HasEdge(u, v) {
				if bw := topo.LinkBandwidth(u, v); bw != 0 {
					t.Errorf("LinkBandwidth(%d,%d) = %v for non-edge", u, v, bw)
				}
				return
			}
		}
	}
}
