package routing

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hfc/internal/svc"
)

// exitScenario is one seeded routing question with its router: a random
// overlay, a request on it, and — by the bits of hooks — a relax mode, a
// provider index, the two cluster-level admissibility hooks and the child
// solver's Usable filter.
type exitScenario struct {
	router *HierarchicalRouter
	req    svc.Request
}

func buildExitScenario(t testing.TB, seed int64, hooks uint8) exitScenario {
	rng := rand.New(rand.NewSource(seed))
	topo, caps, states := randomOverlay(t, rng, 3+int(uint64(seed)%3), 6, 10)
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	view, err := topo.SharedView(req.Dest)
	if err != nil {
		t.Fatalf("SharedView(%d): %v", req.Dest, err)
	}
	solver := &LocalIntraSolver{Topo: topo, States: states}
	r := &HierarchicalRouter{
		View:            view,
		State:           &states[req.Dest],
		Intra:           solver,
		ClusterOfSource: topo.ClusterOf,
		Mode:            relaxModes[int(hooks)%3],
	}
	if hooks&4 != 0 {
		r.Index = BuildProviderIndex(&states[req.Dest], topo.Members(topo.ClusterOf(req.Dest)))
	}
	if hooks&8 != 0 {
		r.ClusterAdmissible = func(s svc.Service, c int) bool { return (len(s)+c)%5 != 0 }
	}
	if hooks&16 != 0 {
		r.CrossingAdmissible = func(from, to int) bool { return (from+2*to)%7 != 0 }
	}
	if hooks&32 != 0 {
		// Usable on the child solves: some providers are out.
		solver.Exclude = func(node int) bool { return node%5 == 3 }
	}
	return exitScenario{router: r, req: req}
}

// exitOutcome is what an exit returned, reduced to what must agree.
type exitOutcome struct {
	path     *Path
	cost     float64
	clusters []int
	err      error
}

func (a exitOutcome) agree(t testing.TB, b exitOutcome, what string) {
	t.Helper()
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		t.Fatalf("%s: errors %v and %v", what, a.err, b.err)
	}
	if a.err != nil {
		return
	}
	if math.Float64bits(a.cost) != math.Float64bits(b.cost) ||
		math.Float64bits(a.path.DecisionCost) != math.Float64bits(b.path.DecisionCost) {
		t.Fatalf("%s: CSP cost %v / %v, path cost %v / %v (must be bit-identical)",
			what, a.cost, b.cost, a.path.DecisionCost, b.path.DecisionCost)
	}
	if !reflect.DeepEqual(a.path.Hops, b.path.Hops) {
		t.Fatalf("%s: paths %v and %v", what, a.path, b.path)
	}
	if !reflect.DeepEqual(a.clusters, b.clusters) {
		t.Fatalf("%s: stamp clusters %v and %v", what, a.clusters, b.clusters)
	}
}

// compareExits resolves the scenario through Route, through RoutePath and
// through the one body on a scratch nobody has used, and demands one answer.
func compareExits(t testing.TB, sc exitScenario) {
	t.Helper()
	r, req := sc.router, sc.req
	var full, pathOnly, fresh exitOutcome

	res, err := r.Route(req)
	full.err = err
	if err == nil {
		full.path, full.cost = res.Path, res.CSPCost
		full.clusters = RouteClusters(nil, res)
		// The Fig. 7 artifacts hang together: one child path per child, the
		// children's services are the CSP's in order, and the endpoints'
		// clusters open and close the stamp set.
		if len(res.ChildPaths) != len(res.Children) {
			t.Fatalf("%d child paths for %d children", len(res.ChildPaths), len(res.Children))
		}
		var services []svc.Service
		for _, child := range res.Children {
			services = append(services, child.Services...)
		}
		if len(services) != len(res.CSP) {
			t.Fatalf("children place %v, the CSP has %d entries", services, len(res.CSP))
		}
		for i, e := range res.CSP {
			if services[i] != req.SG.Services[e.SGVertex] {
				t.Fatalf("child service %d is %q, CSP entry %d names %q", i, services[i], i, req.SG.Services[e.SGVertex])
			}
		}
		if full.clusters[0] != r.ClusterOfSource(req.Source) || !slices.Contains(full.clusters, r.View.ClusterID) {
			t.Fatalf("stamp clusters %v miss an endpoint's cluster", full.clusters)
		}
	}

	var only *Result
	only, pathOnly.clusters, pathOnly.err = r.RoutePath(req, nil)
	if pathOnly.err == nil {
		pathOnly.path, pathOnly.cost = only.Path, only.CSPCost
		if only.CSP != nil || only.Children != nil || only.ChildPaths != nil || only.Degraded {
			t.Fatalf("RoutePath result carries more than its path and cost: %+v", only)
		}
	}
	full.agree(t, pathOnly, "Route vs RoutePath")

	rs := new(routeScratch)
	var freshPath Path
	freshPath, fresh.cost, fresh.err = r.route(req, rs)
	if fresh.err == nil {
		fresh.path = &freshPath
		fresh.clusters = appendDistinctClusters(nil, rs.children)
	}
	full.agree(t, fresh, "pooled vs fresh scratch")

	// A solver that is not a ChildAppender is asked through SolveChild, and
	// the route it takes part in is the same, child paths included.
	var solved exitOutcome
	viaSolve := *r
	viaSolve.Intra = solveOnly{r.Intra}
	sres, err := viaSolve.Route(req)
	solved.err = err
	if err == nil {
		solved.path, solved.cost = sres.Path, sres.CSPCost
		solved.clusters = RouteClusters(nil, sres)
	}
	full.agree(t, solved, "AppendChild vs SolveChild")
	if err == nil && !reflect.DeepEqual(sres.ChildPaths, res.ChildPaths) {
		t.Fatalf("child paths through SolveChild %v, through AppendChild %v", sres.ChildPaths, res.ChildPaths)
	}
}

// solveOnly hides every method of an IntraSolver but SolveChild.
type solveOnly struct{ IntraSolver }

// TestRouteExitsAgree: Route and RoutePath are two materializations of one
// route body — same path, same cost bits, same error text — in every relax
// mode, with and without each hook, and a pooled scratch answers as a fresh
// one does.
func TestRouteExitsAgree(t *testing.T) {
	// Dirty the pool with the largest overlay first.
	compareExits(t, buildExitScenario(t, 2, 4))
	for seed := int64(0); seed < 60; seed++ {
		for hooks := uint8(0); hooks < 64; hooks += 7 {
			compareExits(t, buildExitScenario(t, seed, hooks+uint8(seed%7)))
		}
	}
}

// FuzzRouteScratch is FuzzFindPathScratch one level up: on arbitrary seeded
// overlays, requests and hook combinations the pooled route scratch is
// indistinguishable from a fresh one, and the two exits from each other.
func FuzzRouteScratch(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(13))
	f.Add(int64(42), uint8(63))
	f.Add(int64(-3), uint8(34))
	f.Fuzz(func(t *testing.T, seed int64, hooks uint8) {
		compareExits(t, buildExitScenario(t, seed, hooks))
	})
}

// TestResultDoesNotAliasScratch: what an exit hands out is the caller's. A
// Route result and a RoutePath path read the same after 64 other resolves
// have been through the pooled scratch — serially, and with four goroutines
// resolving at once (run under -race).
func TestResultDoesNotAliasScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo, caps, states := randomOverlay(t, rng, 5, 8, 10)
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 6)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	route := func(req svc.Request) (*Result, *Path) {
		r, err := NewHierarchicalRouter(topo, states, req.Dest, RelaxBacktrack)
		if err != nil {
			t.Errorf("NewHierarchicalRouter: %v", err)
			return nil, nil
		}
		res, err := r.Route(req)
		if err != nil {
			t.Errorf("Route: %v", err)
			return nil, nil
		}
		only, _, err := r.RoutePath(req, nil)
		if err != nil {
			t.Errorf("RoutePath: %v", err)
			return nil, nil
		}
		return res, only.Path
	}
	deepCopy := func(res *Result) *Result {
		cp := &Result{CSP: slices.Clone(res.CSP), CSPCost: res.CSPCost, Children: slices.Clone(res.Children)}
		for i := range cp.Children {
			cp.Children[i].Services = slices.Clone(res.Children[i].Services)
		}
		for _, p := range append(slices.Clone(res.ChildPaths), res.Path) {
			cp.ChildPaths = append(cp.ChildPaths, &Path{Hops: slices.Clone(p.Hops), DecisionCost: p.DecisionCost})
		}
		cp.Path, cp.ChildPaths = cp.ChildPaths[len(res.ChildPaths)], cp.ChildPaths[:len(res.ChildPaths)]
		return cp
	}
	others := make([]svc.Request, 64)
	for i := range others {
		if others[i], err = gen.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	first, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}

	for _, workers := range []int{1, 4} {
		res, p := route(first)
		if res == nil {
			t.FailNow()
		}
		wantRes, wantHops := deepCopy(res), slices.Clone(p.Hops)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(others); i += workers {
					route(others[i])
				}
			}(w)
		}
		wg.Wait()
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%d workers: the Route result changed under later resolves:\n got %+v\nwant %+v", workers, res, wantRes)
		}
		if !reflect.DeepEqual(p.Hops, wantHops) {
			t.Fatalf("%d workers: the RoutePath path changed under later resolves: %v, was %v", workers, p.Hops, wantHops)
		}
	}
}
