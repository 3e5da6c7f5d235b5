package netsim

import (
	"math"
	"math/rand"
	"testing"

	"hfc/internal/topology"
)

func faultNet(t *testing.T, noise float64) *Network {
	t.Helper()
	topo, err := topology.GenerateWaxman(rand.New(rand.NewSource(5)), 30, 1000, 0.6, 0.6)
	if err != nil {
		t.Fatalf("GenerateWaxman: %v", err)
	}
	n, err := New(topo, WithNoise(noise))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestLinkFaultValidateAndMerge(t *testing.T) {
	if err := (LinkFault{Drop: 1.5}).Validate(); err == nil {
		t.Error("Drop > 1 accepted")
	}
	if err := (LinkFault{DelayAddMS: -1}).Validate(); err == nil {
		t.Error("negative DelayAddMS accepted")
	}
	if err := (LinkFault{Drop: 0.5, DelayFactor: 3, JitterMS: 2}).Validate(); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	a := LinkFault{Drop: 0.2, DelayAddMS: 10, DelayFactor: 2}
	b := LinkFault{Drop: 0.5, DelayAddMS: 5, JitterMS: 3, Cut: true}
	m := a.Merge(b)
	want := LinkFault{Cut: true, Drop: 0.5, DelayFactor: 2, DelayAddMS: 15, JitterMS: 3}
	if m != want {
		t.Errorf("Merge = %+v, want %+v", m, want)
	}
	if got := a.Merge(LinkFault{}); got != a {
		t.Errorf("Merge with zero = %+v, want %+v", got, a)
	}
}

func TestFaultTableSetClearLookup(t *testing.T) {
	tab := NewFaultTable()
	f := LinkFault{Drop: 0.3}
	tab.SetBoth(1, 2, f)
	if got, ok := tab.Lookup(2, 1); !ok || got != f {
		t.Fatalf("Lookup(2,1) = %+v, %v", got, ok)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	tab.Clear(1, 2)
	if _, ok := tab.Lookup(1, 2); ok {
		t.Error("cleared link still faulted")
	}
	if _, ok := tab.Lookup(2, 1); !ok {
		t.Error("directed clear removed the reverse direction")
	}
	// Setting the zero fault clears.
	tab.Set(2, 1, LinkFault{})
	if tab.Len() != 0 {
		t.Fatalf("Len after clears = %d, want 0", tab.Len())
	}
	tab.Set(3, 4, f)
	tab.Reset()
	if tab.Len() != 0 {
		t.Error("Reset left entries behind")
	}
}

func TestPingAppliesLinkFault(t *testing.T) {
	n := faultNet(t, 0) // no measurement noise: ping == effective latency
	base := n.Latency(0, 1)
	n.Faults().Set(0, 1, LinkFault{DelayFactor: 2, DelayAddMS: 7})
	rng := rand.New(rand.NewSource(1))
	got := n.Ping(rng, 0, 1)
	want := base*2 + 7
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("faulted Ping = %v, want %v", got, want)
	}
	// The reverse direction is unimpaired.
	if got := n.Ping(rng, 1, 0); math.Abs(got-n.Latency(1, 0)) > 1e-9 {
		t.Errorf("reverse Ping = %v, want clean %v", got, n.Latency(1, 0))
	}
	if got := n.EffectiveLatency(0, 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("EffectiveLatency = %v, want %v", got, want)
	}
	// Jitter stays within its window.
	n.Faults().Set(0, 1, LinkFault{JitterMS: 5})
	for i := 0; i < 50; i++ {
		p := n.Ping(rng, 0, 1)
		if p < base || p >= base+5 {
			t.Fatalf("jittered Ping %v outside [%v, %v)", p, base, base+5)
		}
	}
}

func TestPingUnchangedWithoutFaults(t *testing.T) {
	// The rng stream with an empty fault table must match the historical
	// behaviour exactly, or construction-time measurements would shift.
	a := faultNet(t, 0.25)
	b := faultNet(t, 0.25)
	ra, rb := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		u, v := i%a.N(), (i*7+1)%a.N()
		if pa, pb := a.Ping(ra, u, v), b.Ping(rb, u, v); pa != pb {
			t.Fatalf("ping %d: %v != %v", i, pa, pb)
		}
	}
}

func TestLost(t *testing.T) {
	n := faultNet(t, 0)
	rng := rand.New(rand.NewSource(3))
	if n.Lost(rng, 0, 1) {
		t.Error("healthy link lost a datagram")
	}
	n.Faults().Set(0, 1, LinkFault{Cut: true})
	for i := 0; i < 10; i++ {
		if !n.Lost(rng, 0, 1) {
			t.Fatal("cut link delivered a datagram")
		}
	}
	n.Faults().Set(0, 1, LinkFault{Drop: 0.5})
	lost := 0
	for i := 0; i < 2000; i++ {
		if n.Lost(rng, 0, 1) {
			lost++
		}
	}
	if lost < 800 || lost > 1200 {
		t.Errorf("Drop=0.5 lost %d/2000, want ~1000", lost)
	}
}
