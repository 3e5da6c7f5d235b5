package env

import (
	"math"
	"math/rand"
	"testing"
)

func TestQoSProfileFromEnvironment(t *testing.T) {
	e, err := Build(SmallSpec(23))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	prof, err := e.QoSProfile(rng, 0.1, 0.8)
	if err != nil {
		t.Fatalf("QoSProfile: %v", err)
	}
	if len(prof.Load) != e.Framework.N() {
		t.Fatalf("loads = %d, want %d", len(prof.Load), e.Framework.N())
	}
	for i, l := range prof.Load {
		if l < 0.1 || l >= 0.8 {
			t.Errorf("load[%d] = %v outside [0.1,0.8)", i, l)
		}
	}
	// The bandwidth oracle reflects physical bottlenecks: positive,
	// symmetric, finite for distinct proxies.
	for trial := 0; trial < 50; trial++ {
		u, v := rng.Intn(e.Framework.N()), rng.Intn(e.Framework.N())
		if u == v {
			continue
		}
		bw, err := prof.Bandwidth(u, v)
		if err != nil {
			t.Fatalf("Bandwidth(%d,%d): %v", u, v, err)
		}
		rev, err := prof.Bandwidth(v, u)
		if err != nil {
			t.Fatalf("Bandwidth(%d,%d): %v", v, u, err)
		}
		if bw <= 0 || math.IsInf(bw, 1) {
			t.Fatalf("Bandwidth(%d,%d) = %v", u, v, bw)
		}
		if bw != rev {
			t.Fatalf("bandwidth asymmetric: %v vs %v", bw, rev)
		}
	}
	if _, err := e.QoSProfile(rng, 0.9, 0.1); err == nil {
		t.Error("inverted load range accepted")
	}
}
