package hfc_test

// Benchmark harness: one benchmark per paper table/figure plus the ablation
// benches DESIGN.md calls out. Each figure bench sets up its environments
// outside the timer and measures the operation the figure is about; on the
// first iteration it logs the regenerated rows (run with -v to see them).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig10 -benchtime=1x -v   # print the rows

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfc/internal/chaos"
	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/env"
	"hfc/internal/experiments"
	"hfc/internal/geo"
	"hfc/internal/graph"
	"hfc/internal/hfc"
	"hfc/internal/overlay"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// benchSizes are the Table 1 overlay sizes; override the heavyweight ones
// away with -short.
func benchSpecs(b *testing.B) []env.Spec {
	b.Helper()
	specs := env.Table1(42)
	if testing.Short() {
		return specs[:1]
	}
	return specs
}

// envCache builds each environment once per bench binary run, keyed by the
// FULL spec: two specs sharing a seed but differing in any other knob
// (workers, sizes) are distinct environments.
var (
	envMu    sync.Mutex
	envCache = map[env.Spec]*env.Environment{}
)

func cachedEnv(b *testing.B, spec env.Spec) *env.Environment {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[spec]; ok {
		return e
	}
	e, err := env.Build(spec)
	if err != nil {
		b.Fatalf("env.Build: %v", err)
	}
	envCache[spec] = e
	return e
}

// ---- Regression-gate benchmarks ----
//
// The BenchmarkGate* family is what cmd/benchgate runs to produce
// BENCH_*.json; CI compares the numbers against the last committed snapshot
// and fails on >20% regressions. Keep these cheap, deterministic in shape,
// and focused on the three hot paths: environment build, route resolution,
// and HFC maintenance.

func gateSpec() env.Spec {
	spec := env.SmallSpec(42)
	spec.Proxies = 120
	return spec
}

// gateEngine builds a cold serving engine over a built environment's
// framework.
func gateEngine(b *testing.B, e *env.Environment) *serve.Engine {
	b.Helper()
	fw := e.Framework
	eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{})
	if err != nil {
		b.Fatalf("serve.NewEngine: %v", err)
	}
	return eng
}

// BenchmarkGateEnvBuild measures the end-to-end environment build. The
// build fans out on GOMAXPROCS workers, so `-cpu 1` is the serial reading
// and `-cpu 1,2` the pair DESIGN.md §10.5 quotes (identical output either
// way; see internal/env's pool test).
func BenchmarkGateEnvBuild(b *testing.B) {
	spec := gateSpec()
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed = spec.Seed + int64(i)
		if _, err := env.Build(s); err != nil {
			b.Fatalf("Build: %v", err)
		}
	}
}

func benchGateRouteResolve(b *testing.B, cached bool) {
	e := cachedEnv(b, gateSpec())
	resolve := func(r svc.Request) (*routing.Path, error) {
		res, err := e.Framework.Engine().ResolveExplain(r)
		if err != nil {
			return nil, err
		}
		return res.Path, nil
	}
	if cached {
		resolve = gateEngine(b, e).Resolve
	}
	reqs := make([]svc.Request, 64)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		reqs[i] = r
	}
	// Warm pass: build the engine's views and provider indexes (with
	// cached=true, fill its route cache too) so the timed region measures
	// steady-state resolution rather than first-touch view construction.
	// Uncached resolution (ResolveExplain, which bypasses the cache) still
	// performs the full hierarchical computation per request.
	for _, r := range reqs {
		if _, err := resolve(r); err != nil {
			b.Fatalf("warm resolve: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resolve(reqs[i%len(reqs)]); err != nil {
			b.Fatalf("resolve: %v", err)
		}
	}
}

// BenchmarkGateRouteResolve measures uncached hierarchical route resolution:
// serve.Engine.ResolveExplain, which validates, assembles the destination's
// router and runs HierarchicalRouter.Route with every Fig. 7 artifact. Up to
// BENCH_pr28.json it timed core.Framework.RouteDetailed, the same work over a
// router cache private to the framework.
func BenchmarkGateRouteResolve(b *testing.B) { benchGateRouteResolve(b, false) }

// BenchmarkGateRouteResolveCached measures the same kind of stream answered
// by serve.Engine.Resolve (steady state: every cycle after the first hits
// the route cache). Up to BENCH_pr9.json the name timed a cache private to
// core.Framework, which is gone.
func BenchmarkGateRouteResolveCached(b *testing.B) { benchGateRouteResolve(b, true) }

// csrBenchGraph builds the 512-node delay-weighted graph the CSR Dijkstra
// gate runs on: the gate environment's proxy mesh distances, sparsified to
// a ~16-degree neighbour graph.
func csrBenchGraph(b *testing.B) *graph.CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const n, deg = 512, 16
	pts := make([]coords.Point, n)
	for i := range pts {
		pts[i] = coords.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	g := graph.New(n, false)
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			if err := g.AddEdge(i, j, coords.Dist(pts[i], pts[j])); err != nil {
				b.Fatalf("AddEdge: %v", err)
			}
		}
	}
	c, err := graph.NewCSR(g)
	if err != nil {
		b.Fatalf("NewCSR: %v", err)
	}
	return c
}

// BenchmarkGateDijkstraCSR measures one single-source delay-weighted
// Dijkstra over the packed CSR adjacency with the monotone radix queue and
// reused scratch — the zero-alloc steady state the //hfc:hotpath budget=0
// pin on DijkstraInto asserts.
func BenchmarkGateDijkstraCSR(b *testing.B) {
	c := csrBenchGraph(b)
	sc := graph.NewCSRScratch()
	// Warm pass over every source: bucket slices grow to their steady-state
	// capacity so the timed region is allocation-free regardless of which
	// sources b.N covers.
	for s := 0; s < c.N(); s++ {
		if err := c.DijkstraInto(s, sc); err != nil {
			b.Fatalf("DijkstraInto: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DijkstraInto(i%c.N(), sc); err != nil {
			b.Fatalf("DijkstraInto: %v", err)
		}
	}
}

// batchBenchEngine builds the warmed engine + request stream shared by the
// batched/looped resolution gates: 256 requests drawn from a 64-request
// pool with Zipf-distributed popularity (s=1.3 — the skew the repo's
// serving workload model assumes, see svc.ZipfRequestGenerator), resolved
// once outside the timer so both benches measure steady-state serving.
// Both gates resolve the identical stream; only batching differs.
func batchBenchEngine(b *testing.B) (*serve.Engine, []svc.Request) {
	b.Helper()
	e := cachedEnv(b, gateSpec())
	eng := gateEngine(b, e)
	uniq := make([]svc.Request, 64)
	for i := range uniq {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		uniq[i] = r
	}
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(uniq)-1))
	reqs := make([]svc.Request, 256)
	for i := range reqs {
		reqs[i] = uniq[zipf.Uint64()]
	}
	if _, errs := eng.ResolveBatch(reqs, 1); errs != nil {
		for _, err := range errs {
			if err != nil {
				b.Fatalf("warm ResolveBatch: %v", err)
			}
		}
	}
	return eng, reqs
}

// BenchmarkGateResolveBatch measures amortized per-request cost of batched
// resolution: one ResolveBatch call per iteration over the 256-request
// stream, reported per request. The gate ratio against
// BenchmarkGateResolveLooped is the batching win.
func BenchmarkGateResolveBatch(b *testing.B) {
	eng, reqs := batchBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, errs := eng.ResolveBatch(reqs, 1)
		for j := range paths {
			if errs[j] != nil {
				b.Fatalf("ResolveBatch: %v", errs[j])
			}
		}
	}
	b.StopTimer()
	perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(reqs))
	b.ReportMetric(perReq, "ns/req")
}

// BenchmarkGateResolveLooped is the unbatched baseline for
// BenchmarkGateResolveBatch: the same stream resolved one Resolve call at a
// time.
func BenchmarkGateResolveLooped(b *testing.B) {
	eng, reqs := batchBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			if _, err := eng.Resolve(reqs[j]); err != nil {
				b.Fatalf("Resolve: %v", err)
			}
		}
	}
	b.StopTimer()
	perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(reqs))
	b.ReportMetric(perReq, "ns/req")
}

// maintenanceFixture builds a 512-node, ~16-cluster topology for the
// maintenance benchmarks.
func maintenanceFixture(b *testing.B) *hfc.Topology {
	b.Helper()
	rng := rand.New(rand.NewSource(8))
	n, k := 512, 16
	pts := make([]coords.Point, n)
	for i := range pts {
		c := i % k
		pts[i] = coords.Point{float64(c%4)*300 + rng.Float64()*40, float64(c/4)*300 + rng.Float64()*40}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	res, err := cluster.Cluster(n, cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		b.Fatalf("Cluster: %v", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	return topo
}

// BenchmarkGateIncrementalMaintenance measures one churn event (border node
// leaves, then rejoins) under incremental border maintenance.
func BenchmarkGateIncrementalMaintenance(b *testing.B) {
	topo := maintenanceFixture(b)
	dyn := hfc.NewDynamic(topo)
	borders := topo.BorderNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := borders[i%len(borders)]
		if err := dyn.Leave(node); err != nil {
			b.Fatalf("Leave: %v", err)
		}
		if err := dyn.Rejoin(node); err != nil {
			b.Fatalf("Rejoin: %v", err)
		}
	}
}

// BenchmarkGateFullRebuildMaintenance measures the same churn event handled
// the pre-incremental way: a full border re-election after every membership
// change. The ratio against BenchmarkGateIncrementalMaintenance is the
// speedup the incremental path buys.
func BenchmarkGateFullRebuildMaintenance(b *testing.B) {
	topo := maintenanceFixture(b)
	dyn := hfc.NewDynamic(topo)
	borders := topo.BorderNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := borders[i%len(borders)]
		if err := dyn.Leave(node); err != nil {
			b.Fatalf("Leave: %v", err)
		}
		if err := dyn.Rebuild(); err != nil {
			b.Fatalf("Rebuild: %v", err)
		}
		if err := dyn.Rejoin(node); err != nil {
			b.Fatalf("Rejoin: %v", err)
		}
		if err := dyn.Rebuild(); err != nil {
			b.Fatalf("Rebuild: %v", err)
		}
	}
}

// BenchmarkGateFindPathFlat measures the flat §5.2 algorithm with its pooled
// scratch arena on a mesh oracle. benchgate records allocs/op (-benchmem),
// so growing the per-resolution allocation count past 20% fails the gate.
func BenchmarkGateFindPathFlat(b *testing.B) {
	e := cachedEnv(b, gateSpec())
	provs := routing.CapabilityProviders(e.Framework.Capabilities())
	oracle := routing.OracleFunc(e.Mesh.Dist)
	exp := routing.ExpanderFunc(e.Mesh.Path)
	reqs := make([]svc.Request, 64)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		reqs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.FindPathFiltered(reqs[i%len(reqs)], provs, oracle, exp, nil); err != nil {
			b.Fatalf("FindPathFiltered: %v", err)
		}
	}
}

// BenchmarkGateSolveChildIndexed measures an intra-cluster child resolution
// through the inverted provider index — the serve-engine configuration of
// LocalIntraSolver. The alloc gate proves the per-service provider lookup
// stays a map access, not a member scan with a per-call closure.
func BenchmarkGateSolveChildIndexed(b *testing.B) {
	e := cachedEnv(b, gateSpec())
	topo := e.Framework.Topology()
	states := e.Framework.States()
	caps := e.Framework.Capabilities()
	idx := routing.NewLazyIndexes(states, func(n int) []int {
		return topo.Members(topo.ClusterOf(n))
	}, nil)
	solver := &routing.LocalIntraSolver{Topo: topo, States: states, Indexes: idx}

	// A child request inside cluster 0 for a service one of its members
	// provides.
	members := topo.Members(0)
	child := routing.ChildRequest{
		Cluster:  0,
		Source:   members[0],
		Dest:     members[len(members)-1],
		Resolver: members[0],
	}
	for _, m := range members {
		if ss := caps[m].Sorted(); len(ss) > 0 {
			child.Services = []svc.Service{ss[0]}
			break
		}
	}
	if child.Services == nil {
		b.Fatal("no provider in cluster 0")
	}
	// Build the index and fill the path solver's scratch pool outside the
	// timer, so that the iterations time a warm solve.
	if _, err := solver.SolveChild(child); err != nil {
		b.Fatalf("warm SolveChild: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveChild(child); err != nil {
			b.Fatalf("SolveChild: %v", err)
		}
	}
}

// BenchmarkGateServeThroughput measures steady-state concurrent serving
// through serve.Engine: a warmed request pool resolved from every GOMAXPROCS
// goroutine at once (run with -cpu 1,4,8 to see the scaling; the sharded
// cache keeps the hit path contention-free).
func BenchmarkGateServeThroughput(b *testing.B) {
	e := cachedEnv(b, gateSpec())
	eng := gateEngine(b, e)
	reqs := make([]svc.Request, 256)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		reqs[i] = r
	}
	// Warm pass: fill the cache so the timed region measures serving, not
	// first-touch computation.
	for _, r := range reqs {
		if _, err := eng.Resolve(r); err != nil {
			b.Fatalf("warm Resolve: %v", err)
		}
	}
	var goroutines atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// A per-goroutine offset with a large prime stride spreads the pool
		// across cache shards without a shared counter.
		i := int(goroutines.Add(1)) * 7919
		for pb.Next() {
			if _, err := eng.Resolve(reqs[i%len(reqs)]); err != nil {
				b.Errorf("Resolve: %v", err)
				return
			}
			i++
		}
	})
}

// BenchmarkGateUpdateCapability measures one capability update through
// serve.Engine: the proxy's cluster re-converged (state.Update), the replaced
// tables' index halves forgotten, and the cache invalidation — the cluster's
// round, or the epoch when the cluster's aggregate moved. The update
// alternates one proxy between two sets so every iteration changes the
// deployment.
func BenchmarkGateUpdateCapability(b *testing.B) {
	e := cachedEnv(b, gateSpec())
	eng := gateEngine(b, e)
	caps := e.Framework.Capabilities()
	sets := [2]svc.CapabilitySet{caps[0], caps[1]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.UpdateCapability(0, sets[i%2]); err != nil {
			b.Fatalf("UpdateCapability: %v", err)
		}
	}
}

// BenchmarkGateResolveUnderChaos measures steady-state live route serving
// while the chaos engine impairs every overlay link (25% duplication plus
// microsecond-scale delay jitter, no loss): the per-request cost of the
// LinkPolicy hook, the accrual health bookkeeping, and the degraded-serving
// machinery on the hot path of a noisy-but-functional network.
func BenchmarkGateResolveUnderChaos(b *testing.B) {
	spec := env.SmallSpec(42)
	spec.Proxies = 100
	e := cachedEnv(b, spec)
	ceng := chaos.NewEngine(42, time.Microsecond)
	if err := ceng.Inject(chaos.Fault{ID: "noise", DuplicateRate: 0.25, DelayMS: 1, JitterMS: 2}); err != nil {
		b.Fatalf("Inject: %v", err)
	}
	sys, err := overlay.New(e.Framework.Topology(), e.Framework.Capabilities(), overlay.Config{
		LinkPolicy:     ceng.Policy,
		Health:         overlay.HealthConfig{Enabled: true},
		DegradedRoutes: true,
		CacheRoutes:    true,
	})
	if err != nil {
		b.Fatalf("overlay.New: %v", err)
	}
	if err := sys.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := sys.Stop(); err != nil {
			b.Errorf("Stop: %v", err)
		}
	}()
	for r := 0; r < 15; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		ok, err := sys.Converged()
		if err != nil {
			b.Fatalf("Converged: %v", err)
		}
		if ok {
			break
		}
	}
	reqs := make([]svc.Request, 64)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		reqs[i] = r
		// Warm pass: steady state measures cached serving under noise.
		if _, err := sys.Route(r); err != nil {
			b.Fatalf("warm Route: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Route(reqs[i%len(reqs)]); err != nil {
			b.Fatalf("Route: %v", err)
		}
	}
}

// BenchmarkTable1EnvBuild regenerates Table 1: the cost of building each
// simulation environment end to end (topology, GNP embedding, clustering,
// borders, state, mesh).
func BenchmarkTable1EnvBuild(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		spec := spec
		b.Run(fmt.Sprintf("proxies=%d", spec.Proxies), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := spec
				s.Seed = spec.Seed + int64(i)
				if _, err := env.Build(s); err != nil {
					b.Fatalf("Build: %v", err)
				}
			}
		})
	}
}

// BenchmarkFig9aCoordinatesOverhead regenerates Figure 9(a): per-proxy
// coordinate state under HFC, counted per node from its cluster's size and
// the border sets (Topology.CoordinateStateSize).
func BenchmarkFig9aCoordinatesOverhead(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		spec := spec
		b.Run(fmt.Sprintf("proxies=%d", spec.Proxies), func(b *testing.B) {
			e := cachedEnv(b, spec)
			topo := e.Framework.Topology()
			b.ResetTimer()
			var total int
			for i := 0; i < b.N; i++ {
				total = 0
				for node := 0; node < topo.N(); node++ {
					total += topo.CoordinateStateSize(node)
				}
			}
			b.ReportMetric(float64(total)/float64(topo.N()), "coordstates/proxy")
			if b.N == 1 {
				b.Logf("Fig9a: proxies=%d flat=%d hfc=%.1f", spec.Proxies, spec.Proxies, float64(total)/float64(topo.N()))
			}
		})
	}
}

// BenchmarkFig9bServiceOverhead regenerates Figure 9(b): per-proxy service
// capability state, measured by running the §4 state protocol.
func BenchmarkFig9bServiceOverhead(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		spec := spec
		b.Run(fmt.Sprintf("proxies=%d", spec.Proxies), func(b *testing.B) {
			e := cachedEnv(b, spec)
			topo := e.Framework.Topology()
			caps := e.Framework.Capabilities()
			b.ResetTimer()
			var mean float64
			for i := 0; i < b.N; i++ {
				states, _, err := state.Distribute(topo, caps)
				if err != nil {
					b.Fatalf("Distribute: %v", err)
				}
				total := 0
				for n := range states {
					total += states[n].ServiceStateSize()
				}
				mean = float64(total) / float64(len(states))
			}
			b.ReportMetric(mean, "svcstates/proxy")
			if b.N == 1 {
				b.Logf("Fig9b: proxies=%d flat=%d hfc=%.1f", spec.Proxies, spec.Proxies, mean)
			}
		})
	}
}

// BenchmarkFig10PathEfficiency regenerates Figure 10: per-request routing
// under the three schemes; the reported path lengths (true delay) are the
// figure's bars.
func BenchmarkFig10PathEfficiency(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		spec := spec
		e := cachedEnv(b, spec)
		fw := e.Framework
		provs := routing.CapabilityProviders(fw.Capabilities())
		hfcMetric := routing.HFCMetric{T: fw.Topology()}
		meshOracle := routing.OracleFunc(e.Mesh.Dist)
		meshExp := routing.ExpanderFunc(e.Mesh.Path)

		// Pre-draw a request pool so every scheme sees the same stream.
		reqs := make([]svc.Request, 256)
		for i := range reqs {
			r, err := e.NextRequest()
			if err != nil {
				b.Fatalf("NextRequest: %v", err)
			}
			reqs[i] = r
		}

		schemes := []struct {
			name  string
			route func(svc.Request) (*routing.Path, error)
		}{
			{"mesh", func(r svc.Request) (*routing.Path, error) {
				return routing.FindPath(r, provs, meshOracle, meshExp)
			}},
			{"hfc-agg", fw.Route},
			{"hfc-full", func(r svc.Request) (*routing.Path, error) {
				return routing.FindPath(r, provs, hfcMetric, hfcMetric)
			}},
		}
		for _, scheme := range schemes {
			scheme := scheme
			b.Run(fmt.Sprintf("proxies=%d/%s", spec.Proxies, scheme.name), func(b *testing.B) {
				sum := 0.0
				for i := 0; i < b.N; i++ {
					req := reqs[i%len(reqs)]
					p, err := scheme.route(req)
					if err != nil {
						b.Fatalf("%s route: %v", scheme.name, err)
					}
					sum += p.Length(e.TrueDist)
				}
				b.ReportMetric(sum/float64(b.N), "pathlen-ms")
			})
		}
	}
}

// BenchmarkAblationRelax regenerates ablation A3: the three cluster-level
// relaxation modes on the same environment and request stream.
func BenchmarkAblationRelax(b *testing.B) {
	spec := env.Table1(42)[0]
	e := cachedEnv(b, spec)
	topo := e.Framework.Topology()
	states := e.Framework.States()
	reqs := make([]svc.Request, 128)
	for i := range reqs {
		r, err := e.NextRequest()
		if err != nil {
			b.Fatalf("NextRequest: %v", err)
		}
		reqs[i] = r
	}
	for _, mode := range []routing.RelaxMode{routing.RelaxBacktrack, routing.RelaxExact, routing.RelaxExternalOnly} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				req := reqs[i%len(reqs)]
				r, err := routing.NewHierarchicalRouter(topo, states, req.Dest, mode)
				if err != nil {
					b.Fatalf("NewHierarchicalRouter: %v", err)
				}
				res, err := r.Route(req)
				if err != nil {
					b.Fatalf("route: %v", err)
				}
				sum += res.Path.Length(e.TrueDist)
			}
			b.ReportMetric(sum/float64(b.N), "pathlen-ms")
		})
	}
}

// BenchmarkAblationBorder regenerates ablations A4/A5 (border-selection
// rules) via the experiment runner.
func BenchmarkAblationBorder(b *testing.B) {
	spec := env.SmallSpec(42)
	spec.Proxies = 100
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationBorder(spec, 50)
		if err != nil {
			b.Fatalf("RunAblationBorder: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatAblationBorder(rows))
		}
	}
}

// BenchmarkAblationK regenerates ablation A1 (inconsistency factor sweep).
func BenchmarkAblationK(b *testing.B) {
	spec := env.SmallSpec(42)
	spec.Proxies = 100
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationK(spec, []float64{2, 3, 4}, 50)
		if err != nil {
			b.Fatalf("RunAblationK: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatAblationK(rows))
		}
	}
}

// BenchmarkAblationDim regenerates ablation A2 (embedding dimension).
func BenchmarkAblationDim(b *testing.B) {
	spec := env.SmallSpec(42)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationDim(spec, []int{2, 3}, 25, 400)
		if err != nil {
			b.Fatalf("RunAblationDim: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatAblationDim(rows))
		}
	}
}

// BenchmarkQoSExtension regenerates the §7 QoS experiment (flat vs
// hierarchical aggregated QoS routing, both admission policies).
func BenchmarkQoSExtension(b *testing.B) {
	spec := env.SmallSpec(42)
	spec.Proxies = 100
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunQoS(spec, experiments.DefaultQoSSettings(), 40)
		if err != nil {
			b.Fatalf("RunQoS: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatQoS(rows))
		}
	}
}

// BenchmarkAblationChurn regenerates ablation A6 (join-nearest vs
// re-clustering).
func BenchmarkAblationChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationChurn(42, 120, []int{0, 40, 120})
		if err != nil {
			b.Fatalf("RunAblationChurn: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatAblationChurn(rows))
		}
	}
}

// BenchmarkMultiLevel regenerates the tri-level comparison (state vs path
// quality of adding a third hierarchy tier).
func BenchmarkMultiLevel(b *testing.B) {
	specs := env.Table1(42)[:1]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMultiLevel(specs, 50)
		if err != nil {
			b.Fatalf("RunMultiLevel: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatMultiLevel(rows))
		}
	}
}

// BenchmarkAblationLandmarks regenerates ablation A8 (landmark placement).
func BenchmarkAblationLandmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationLandmarks(42, 300, 80, 8, 400, 1)
		if err != nil {
			b.Fatalf("RunAblationLandmarks: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + experiments.FormatAblationLandmarks(rows))
		}
	}
}

// BenchmarkGNPEmbedLandmarks measures phase 1 of §3.1 (the m-landmark
// simplex fit).
func BenchmarkGNPEmbedLandmarks(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := 10
	pts := make([]coords.Point, m)
	for i := range pts {
		pts[i] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	dists := make([][]float64, m)
	for i := range dists {
		dists[i] = make([]float64, m)
		for j := range dists[i] {
			dists[i][j] = coords.Dist(pts[i], pts[j])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coords.EmbedLandmarks(rng, dists, 2); err != nil {
			b.Fatalf("EmbedLandmarks: %v", err)
		}
	}
}

// BenchmarkGNPPlaceNode measures phase 2 of §3.1 (per-proxy placement).
func BenchmarkGNPPlaceNode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	landmarks := []coords.Point{{0, 0}, {100, 0}, {0, 100}, {100, 100}, {50, 20}, {20, 80}}
	truth := coords.Point{37, 61}
	dists := make([]float64, len(landmarks))
	for i, lm := range landmarks {
		dists[i] = coords.Dist(truth, lm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coords.PlaceNode(rng, landmarks, dists); err != nil {
			b.Fatalf("PlaceNode: %v", err)
		}
	}
}

// BenchmarkZahnClustering measures §3.2 MST cluster detection at overlay
// scale.
func BenchmarkZahnClustering(b *testing.B) {
	for _, n := range []int{250, 1000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			pts := make([]coords.Point, n)
			for i := range pts {
				c := i % 8
				pts[i] = coords.Point{float64(c%4)*200 + rng.Float64()*30, float64(c/4)*200 + rng.Float64()*30}
			}
			dist := func(i, j int) float64 { return coords.Dist(pts[i], pts[j]) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Cluster(n, dist, cluster.DefaultConfig()); err != nil {
					b.Fatalf("Cluster: %v", err)
				}
			}
		})
	}
}

// BenchmarkGateStateDistribute measures one synchronous §4 protocol round.
// The alloc gate holds it to one table per cluster plus one for the system,
// not one set clone per (receiver, origin).
func BenchmarkGateStateDistribute(b *testing.B) {
	spec := env.Table1(42)[0]
	e := cachedEnv(b, spec)
	topo := e.Framework.Topology()
	caps := e.Framework.Capabilities()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := state.Distribute(topo, caps); err != nil {
			b.Fatalf("Distribute: %v", err)
		}
	}
}

// BenchmarkOverlayProtocolRound measures a live concurrent protocol round
// (goroutine-per-proxy message passing).
func BenchmarkOverlayProtocolRound(b *testing.B) {
	spec := env.SmallSpec(42)
	spec.Proxies = 100
	e := cachedEnv(b, spec)
	sys, err := overlay.New(e.Framework.Topology(), e.Framework.Capabilities(), overlay.Config{})
	if err != nil {
		b.Fatalf("overlay.New: %v", err)
	}
	if err := sys.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := sys.Stop(); err != nil {
			b.Errorf("Stop: %v", err)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
}

// ---- Geometric-engine benchmarks ----
//
// The Indexed gates exercise the internal/geo spatial-index construction
// paths; their Brute counterparts (not gates — they exist as the speedup
// baseline recorded alongside the gates in BENCH_pr5.json) run the same
// work through the O(n²) scans.

// geoBenchPoints builds the shared n-point, 8-blob fixture for the
// geometry benches (same shape as BenchmarkZahnClustering, bigger n).
func geoBenchPoints(n int) []coords.Point {
	rng := rand.New(rand.NewSource(3))
	pts := make([]coords.Point, n)
	for i := range pts {
		c := i % 8
		pts[i] = coords.Point{float64(c%4)*200 + rng.Float64()*30, float64(c/4)*200 + rng.Float64()*30}
	}
	return pts
}

func benchZahnCluster(b *testing.B, n int, strat geo.Strategy) {
	pts := geoBenchPoints(n)
	dist := func(i, j int) float64 { return coords.Dist(pts[i], pts[j]) }
	cfg := cluster.DefaultConfig()
	cfg.Index = strat
	if strat != geo.Brute {
		cfg.Points = pts
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Cluster(n, dist, cfg); err != nil {
			b.Fatalf("Cluster: %v", err)
		}
	}
}

// BenchmarkGateZahnClusterIndexed measures §3.2 Zahn clustering through the
// k-d-tree Borůvka MST at n=4096.
func BenchmarkGateZahnClusterIndexed(b *testing.B) { benchZahnCluster(b, 4096, geo.KDTree) }

// BenchmarkZahnClusterBrute is the complete-graph Prim baseline for the
// indexed gate above.
func BenchmarkZahnClusterBrute(b *testing.B) { benchZahnCluster(b, 4096, geo.Brute) }

// borderBenchInstance builds an n-node, k-cluster instance for the border
// election benches.
func borderBenchInstance(b *testing.B, n, k int) (*coords.Map, *cluster.Result) {
	b.Helper()
	pts := geoBenchPoints(n)
	cmap, err := coords.NewMap(pts)
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	res := &cluster.Result{Assignment: make([]int, n), Clusters: make([][]int, k)}
	for i := 0; i < n; i++ {
		c := i % k
		res.Assignment[i] = c
		res.Clusters[c] = append(res.Clusters[c], i)
	}
	return cmap, res
}

func benchBorderElection(b *testing.B, indexed bool) {
	cmap, clustering := borderBenchInstance(b, 4096, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if indexed {
			_, err = hfc.Build(cmap, clustering)
		} else {
			_, err = hfc.BuildWithSelector(cmap, clustering, hfc.ClosestPairSelector())
		}
		if err != nil {
			b.Fatalf("build: %v", err)
		}
	}
}

// BenchmarkGateBorderElectionIndexed measures the full §3.3 border
// elections through the per-cluster geo indexes at n=4096.
func BenchmarkGateBorderElectionIndexed(b *testing.B) { benchBorderElection(b, true) }

// BenchmarkBorderElectionBrute is the O(|A|·|B|)-per-pair baseline for the
// indexed gate above.
func BenchmarkBorderElectionBrute(b *testing.B) { benchBorderElection(b, false) }

// BenchmarkGateGeoKNN measures k-NN queries against a 4096-point k-d tree
// (k=8), the primitive the construction paths lean on.
func BenchmarkGateGeoKNN(b *testing.B) {
	pts := geoBenchPoints(4096)
	idx, err := geo.NewIndex(pts, nil, geo.KDTree)
	if err != nil {
		b.Fatalf("NewIndex: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nbs := idx.KNN(pts[i%len(pts)], 8, nil); len(nbs) != 8 {
			b.Fatalf("KNN returned %d neighbours", len(nbs))
		}
	}
}

// BenchmarkClusterMergeSmall measures clustering dominated by the
// small-cluster merge loop (satellite regression bench: the merge reuses
// one geo index across rounds instead of rescanning all pairs).
func BenchmarkClusterMergeSmall(b *testing.B) {
	const n = 2048
	pts := geoBenchPoints(n)
	dist := func(i, j int) float64 { return coords.Dist(pts[i], pts[j]) }
	for _, tc := range []struct {
		name  string
		strat geo.Strategy
	}{{"indexed", geo.KDTree}, {"brute", geo.Brute}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := cluster.DefaultConfig()
			cfg.MinClusterSize = 24
			cfg.Index = tc.strat
			if tc.strat != geo.Brute {
				cfg.Points = pts
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Cluster(n, dist, cfg); err != nil {
					b.Fatalf("Cluster: %v", err)
				}
			}
		})
	}
}

// BenchmarkEnvBuild2048 measures a 2048-proxy environment build (not a
// gate: one build takes seconds); `-cpu 1,2` gives the serial/parallel gap
// DESIGN.md §10.5 documents.
func BenchmarkEnvBuild2048(b *testing.B) {
	spec := env.Spec{
		PhysicalNodes: 3000,
		Landmarks:     12,
		Proxies:       2048,
		Clients:       50,
		MinServices:   4,
		MaxServices:   10,
		MinRequestLen: 4,
		MaxRequestLen: 10,
		CatalogSize:   40,
		CoordDim:      2,
		Probes:        3,
		Seed:          42,
	}
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed += int64(i)
		if _, err := env.Build(s); err != nil {
			b.Fatalf("Build: %v", err)
		}
	}
}

// BenchmarkGateSimConverge100k is the virtual-time scale gate: one full
// 100k-proxy tri-level overlay — hierarchical construction plus the §4
// state distribution driven to ground-truth convergence — per iteration,
// entirely on the simulated clock on one scheduler. It pins the headline
// simulation-harness claim (100k converges in well under a minute) as a
// regression number; by far the heaviest gate, so benchgate's fixed
// benchtime matters more than usual here.
func BenchmarkGateSimConverge100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := overlay.Simulate(overlay.SimSpec{N: 100_000, Multilevel: true}, 1)
		if err != nil {
			b.Fatalf("Simulate: %v", err)
		}
		if !rep.Converged {
			b.Fatal("100k simulation did not converge")
		}
	}
}

// BenchmarkGateSimDelayedRound is the delayed-delivery gate: one steady §4
// state round per iteration on the event driver with link latency — 2000
// proxies in 49 blobs, DelayPerUnit 10 µs — so every message is an entry of a
// run in the driver's in-flight store and every flood one batch event on the
// virtual clock (the inline path GateSimConverge100k runs touches neither).
// allocs/msg is the figure a closure or a boxed event per delivery would move
// from ~0.03 to 1 or more, and a batch object per flood by a sixtieth; B/op
// is what the round's peak in flight costs, 16 B an entry.
func BenchmarkGateSimDelayedRound(b *testing.B) {
	const n, side = 2000, 7
	rng := rand.New(rand.NewSource(15))
	pts := make([]coords.Point, n)
	for i := range pts {
		blob := i % (side * side)
		pts[i] = coords.Point{
			(float64(blob%side)+0.5)*140 + rng.NormFloat64()*14,
			(float64(blob/side)+0.5)*140 + rng.NormFloat64()*14,
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	clustering, err := cluster.Cluster(n, cmap.Dist, cluster.Config{Points: pts, MinClusterSize: 8})
	if err != nil {
		b.Fatalf("Cluster: %v", err)
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		b.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, n, cat, 2, 5)
	if err != nil {
		b.Fatalf("RandomCapabilities: %v", err)
	}
	sim := vtime.NewSim()
	sys, err := overlay.New(topo, caps, overlay.Config{Clock: sim, DelayPerUnit: 10 * time.Microsecond})
	if err != nil {
		b.Fatalf("overlay.New: %v", err)
	}
	if err := sys.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	round := func() {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
	b.ReportAllocs()
	sim.Run(func() {
		round()
		round() // converged: every timed round is a steady one
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msgs := sys.Traffic().Total()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		msgs = sys.Traffic().Total() - msgs
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	})
	if err := sys.Stop(); err != nil {
		b.Errorf("Stop: %v", err)
	}
}

// BenchmarkGateVTimeEvent is the bare scheduler under the same load shape:
// 10⁵ typed posts at seeded pseudo-random delays, then drained, per
// iteration — push, sift, pop and the queue's chunk give-back, no overlay.
func BenchmarkGateVTimeEvent(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(15))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
	}
	sim := vtime.NewSim()
	fired := 0
	count := func(int) { fired++ }
	b.ReportAllocs()
	sim.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range delays {
				sim.Post(d, count, 0)
			}
			sim.WaitIdle()
		}
		b.StopTimer()
	})
	if fired != n*b.N {
		b.Fatalf("%d of %d posts fired", fired, n*b.N)
	}
}
