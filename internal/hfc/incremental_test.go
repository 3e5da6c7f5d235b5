package hfc

import (
	"errors"
	"math/rand"
	"testing"
)

// rebuildReference builds a fresh Dynamic over the same topology, replays
// the live/absent membership, and runs a full Rebuild — the ground truth
// incremental maintenance must match.
func rebuildReference(t *testing.T, topo *Topology, present []bool) *Dynamic {
	t.Helper()
	ref := NewDynamic(topo)
	for node, p := range present {
		if !p {
			if err := ref.Leave(node); err != nil {
				t.Fatalf("reference Leave(%d): %v", node, err)
			}
		}
	}
	if err := ref.Rebuild(); err != nil {
		t.Fatalf("reference Rebuild: %v", err)
	}
	return ref
}

// TestDynamicEquivalentToRebuildUnderChurn: after ANY sequence of leaves and
// rejoins, the incrementally maintained table equals the one a full Rebuild
// over the same live membership publishes — the pairs the incremental rule
// skipped really were unchanged.
func TestDynamicEquivalentToRebuildUnderChurn(t *testing.T) {
	churn(t, func(trial, step int, topo *Topology, dyn *Dynamic, present []bool) {
		if ref := rebuildReference(t, topo, present); !sameTable(dyn.Table(), ref.Table()) {
			t.Fatalf("trial %d step %d: incremental table %v diverges from rebuild %v",
				trial, step, dyn.Table().BorderInA, ref.Table().BorderInA)
		}
	})
}

func TestDynamicNoChurnMatchesStatic(t *testing.T) {
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(3)), 40, 4)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	view, err := NewDynamic(topo).SharedView(0)
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	k := topo.NumClusters()
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			wantA, wantB, err := topo.Border(a, b)
			if err != nil {
				t.Fatalf("Border(%d,%d): %v", a, b, err)
			}
			gotA, gotB, err := view.Border(a, b)
			if err != nil || gotA != wantA || gotB != wantB {
				t.Errorf("attached Border(%d,%d) = (%d,%d,%v), want (%d,%d)", a, b, gotA, gotB, err, wantA, wantB)
			}
		}
	}
}

func TestDynamicMembershipErrors(t *testing.T) {
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(4)), 12, 3)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dyn := NewDynamic(topo)
	if err := dyn.Leave(-1); err == nil {
		t.Error("out-of-range Leave accepted")
	}
	if err := dyn.Rejoin(0); !errors.Is(err, ErrNoChange) {
		t.Errorf("Rejoin of a present node: %v, want ErrNoChange", err)
	}
	if err := dyn.Leave(0); err != nil {
		t.Fatalf("Leave(0): %v", err)
	}
	if err := dyn.Leave(0); !errors.Is(err, ErrNoChange) {
		t.Errorf("double Leave: %v, want ErrNoChange", err)
	}
	if dyn.Present(0) {
		t.Error("node 0 still present after Leave")
	}
	if err := dyn.Rejoin(0); err != nil {
		t.Fatalf("Rejoin(0): %v", err)
	}
	if !dyn.Present(0) {
		t.Error("node 0 absent after Rejoin")
	}
}
