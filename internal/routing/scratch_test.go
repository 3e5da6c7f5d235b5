package routing

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/coords"
	"hfc/internal/svc"
)

// scratchScenario is one randomized FindPath instance derived from a seed:
// node coordinates, capability assignment, a (possibly non-linear) service
// graph, and an optional admissibility filter.
type scratchScenario struct {
	req        svc.Request
	providers  ProviderFunc
	oracle     Oracle
	admissible EdgeFilter
}

func buildScratchScenario(seed int64, nNodes, nServices int) scratchScenario {
	rng := rand.New(rand.NewSource(seed))
	if nNodes < 2 {
		nNodes = 2
	}
	if nServices < 1 {
		nServices = 1
	}

	pts := make([]coords.Point, nNodes)
	for i := range pts {
		pts[i] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
	}

	names := make([]svc.Service, nServices)
	for i := range names {
		names[i] = svc.Service('a' + byte(i%26))
		if i >= 26 {
			names[i] += svc.Service('0' + byte(i/26))
		}
	}
	caps := make([]svc.CapabilitySet, nNodes)
	for i := range caps {
		caps[i] = svc.NewCapabilitySet()
	}
	// Every service gets at least one provider; extras at random.
	for _, s := range names {
		caps[rng.Intn(nNodes)].Add(s)
		for i := range caps {
			if rng.Float64() < 0.3 {
				caps[i].Add(s)
			}
		}
	}

	// Random DAG over the services: forward edges i -> j (i < j) keep it
	// acyclic; ensure weak connectivity by chaining consecutive vertices
	// with some probability and adding random skips.
	sg := &svc.Graph{Services: names}
	for i := 0; i+1 < nServices; i++ {
		if rng.Float64() < 0.8 {
			sg.Edges = append(sg.Edges, [2]int{i, i + 1})
		}
	}
	for k := 0; k < nServices; k++ {
		i := rng.Intn(nServices)
		j := rng.Intn(nServices)
		if i < j {
			sg.Edges = append(sg.Edges, [2]int{i, j})
		}
	}

	var filter EdgeFilter
	if rng.Float64() < 0.5 {
		// A deterministic filter that prunes some hop pairs.
		mod := 2 + rng.Intn(3)
		filter = func(u, v int) bool { return (u+v)%mod != 0 }
	}

	return scratchScenario{
		req:        svc.Request{Source: rng.Intn(nNodes), Dest: rng.Intn(nNodes), SG: sg},
		providers:  CapabilityProviders(caps),
		oracle:     euclidOracle(pts),
		admissible: filter,
	}
}

// comparePooledFresh runs the scenario through the pooled entry point and
// through a fresh arena, failing unless errors and results (hop sequences
// and bitwise costs) agree.
func comparePooledFresh(t *testing.T, sc scratchScenario) {
	t.Helper()
	pooled, errP := FindPathFiltered(sc.req, sc.providers, sc.oracle, nil, sc.admissible)
	fresh, errF := findPathScratch(sc.req, sc.providers, sc.oracle, nil, sc.admissible, new(pathScratch))
	if (errP == nil) != (errF == nil) {
		t.Fatalf("pooled err = %v, fresh err = %v", errP, errF)
	}
	if errP != nil {
		if errP.Error() != errF.Error() {
			t.Fatalf("pooled err = %v, fresh err = %v", errP, errF)
		}
		return
	}
	if pooled.DecisionCost != fresh.DecisionCost {
		t.Fatalf("pooled cost = %v, fresh cost = %v (must be bit-identical)", pooled.DecisionCost, fresh.DecisionCost)
	}
	if !reflect.DeepEqual(pooled.Hops, fresh.Hops) {
		t.Fatalf("pooled hops = %v, fresh hops = %v", pooled.Hops, fresh.Hops)
	}
}

func TestFindPathScratchMatchesFresh(t *testing.T) {
	// Dirty the pool with a large instance first so small runs exercise
	// capacity reuse with stale contents.
	big := buildScratchScenario(99, 40, 12)
	if _, err := FindPathFiltered(big.req, big.providers, big.oracle, nil, big.admissible); err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatalf("warm-up: %v", err)
	}
	for seed := int64(0); seed < 200; seed++ {
		sc := buildScratchScenario(seed, 2+int(seed%17), 1+int(seed%7))
		comparePooledFresh(t, sc)
	}
}

func TestFindPathScratchConcurrentReuse(t *testing.T) {
	// Concurrent pooled calls must not share live scratches; each goroutine
	// cross-checks its pooled result against a fresh arena.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for seed := int64(g * 100); seed < int64(g*100+50); seed++ {
				sc := buildScratchScenario(seed, 3+int(seed%11), 1+int(seed%5))
				pooled, errP := FindPathFiltered(sc.req, sc.providers, sc.oracle, nil, sc.admissible)
				fresh, errF := findPathScratch(sc.req, sc.providers, sc.oracle, nil, sc.admissible, new(pathScratch))
				if (errP == nil) != (errF == nil) {
					done <- errors.New("pooled/fresh error mismatch")
					return
				}
				if errP == nil && (pooled.DecisionCost != fresh.DecisionCost || !reflect.DeepEqual(pooled.Hops, fresh.Hops)) {
					done <- errors.New("pooled/fresh result mismatch")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzFindPathScratch asserts that the pooled-scratch search is
// indistinguishable from a fresh-allocation run on arbitrary randomized
// instances (ISSUE PR4 satellite d).
func FuzzFindPathScratch(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2))
	f.Add(int64(7), uint8(12), uint8(5))
	f.Add(int64(42), uint8(30), uint8(9))
	f.Add(int64(-3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nNodes, nServices uint8) {
		sc := buildScratchScenario(seed, int(nNodes%48), int(nServices%14))
		comparePooledFresh(t, sc)
	})
}
