package main

// adapter.go holds every call the benchmark makes into hfc/internal/...; the
// other files see the system only through the types and functions declared
// here, so a refactor of the internals has one file of the benchmark to keep
// compiling. It calls only the surface the roadmap keeps: no ResolveAll, no
// pointer Dijkstra, no Workers/CacheShards/CacheRoutes/ServeEngine/DenseMatrix.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/core"
	"hfc/internal/graph"
	"hfc/internal/hfc"
	"hfc/internal/netsim"
	"hfc/internal/overlay"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/svc"
	"hfc/internal/topology"
	"hfc/internal/vtime"
)

type (
	request = svc.Request
	path    = routing.Path
	capSet  = svc.CapabilitySet
)

// maxRelayRun is §3's bound: a border pair per cluster crossing, so no path
// relays through more than two proxies in a row.
const maxRelayRun = 2

// checkPath is the correctness check applied to every resolved path: it
// answers req under the deployment caps and respects the relay bound.
func checkPath(p *path, req request, caps []capSet) error {
	if p == nil {
		return errors.New("nil path")
	}
	if err := p.Validate(req, caps); err != nil {
		return err
	}
	run := 0
	for i, h := range p.Hops {
		if i == 0 || i == len(p.Hops)-1 || h.Service != "" {
			run = 0
			continue
		}
		if run++; run > maxRelayRun {
			return fmt.Errorf("path %v relays through more than %d proxies in a row", p, maxRelayRun)
		}
	}
	return nil
}

// foldPath folds a path's hops into an FNV-1a digest.
func foldPath(h uint64, p *path) uint64 {
	const prime = 1099511628211
	for _, hop := range p.Hops {
		h = (h ^ uint64(uint32(hop.Node))) * prime
		for i := 0; i < len(hop.Service); i++ {
			h = (h ^ uint64(hop.Service[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	return (h ^ 0xfe) * prime
}

func samePath(a, b *path) bool {
	if a == nil || b == nil || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// requestKey identifies a request the way the route cache does.
func requestKey(req request) string {
	return strconv.Itoa(req.Source) + ">" + strconv.Itoa(req.Dest) + ":" + req.SG.Canonical()
}

// stretch is length(p) ÷ length(optimal flat path over the global deployment),
// both in coordinate space, with the time the flat search took.
func stretch(req request, p *path, caps []capSet, cmap *coords.Map) (float64, time.Duration, error) {
	t0 := time.Now()
	opt, err := routing.FindPath(req, routing.CapabilityProviders(caps), routing.OracleFunc(cmap.Dist), nil)
	d := time.Since(t0)
	if err != nil {
		return 0, d, fmt.Errorf("flat path: %w", err)
	}
	ol := opt.Length(cmap.Dist)
	if ol <= 0 {
		return 1, d, nil
	}
	return p.Length(cmap.Dist) / ol, d, nil
}

// requestStream returns a stream of satisfiable linear requests of minLen to
// maxLen services between uniform random distinct proxies of the deployment.
func requestStream(rng *rand.Rand, caps []capSet, minLen, maxLen int) (func() request, error) {
	gen, err := svc.NewRequestGenerator(rng, caps, minLen, maxLen)
	if err != nil {
		return nil, err
	}
	return func() request {
		req, err := gen.Next()
		if err != nil {
			// The generator was validated at construction; Next cannot fail.
			panic(err)
		}
		return req
	}, nil
}

// randomCapSet draws one proxy's services as the deployments were drawn.
func randomCapSet(rng *rand.Rand, cat *svc.Catalog, minServices, maxServices int) (capSet, error) {
	sets, err := svc.RandomCapabilities(rng, 1, cat, minServices, maxServices)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// ---- the Table 1 environment of the resolve-* workloads ----

type resolveSpec struct {
	physical, landmarks, proxies int
	catalog                      int
	minServices, maxServices     int
	minLen, maxLen               int
}

// The embedding dimension and probe count core.Bootstrap selects for the
// zero core.Config; the staged bootstrap of a traced run must use the same.
const (
	coreCoordDim = 2
	coreProbes   = 5
)

type resolveEnv struct {
	spec   resolveSpec
	topo   *hfc.Topology
	cat    *svc.Catalog
	caps   []capSet          // the benchmark's mirror of the engine's deployment
	states []state.NodeState // as bootstrapped, before any update
	eng    *serve.Engine
}

// buildResolveEnv generates the physical network, places landmarks and
// proxies, bootstraps the framework and builds the serving engine, then
// resolves one request per destination proxy so the engine's lazy
// per-destination views and provider indexes exist. With st non-nil it also
// runs the bootstrap stage by stage under spans and checks that the stages
// build what core.Bootstrap built.
func buildResolveEnv(spec resolveSpec, st *stages, tracedPairs int) (*resolveEnv, error) {
	rng := rand.New(rand.NewSource(envSeed))
	cfg, err := topology.ConfigForSize(spec.physical)
	if err != nil {
		return nil, err
	}
	var phys *topology.Topology
	if err := st.do("topology.generate", func() (err error) {
		phys, err = topology.GenerateTransitStub(rng, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	var net *netsim.Network
	if err := st.do("netsim.new", func() (err error) {
		net, err = netsim.New(phys)
		return err
	}); err != nil {
		return nil, err
	}
	stubs := phys.StubNodes()
	if spec.landmarks+spec.proxies > len(stubs) {
		return nil, fmt.Errorf("need %d stub nodes, topology has %d", spec.landmarks+spec.proxies, len(stubs))
	}
	perm := rng.Perm(len(stubs))
	landmarks := make([]int, spec.landmarks)
	for i := range landmarks {
		landmarks[i] = stubs[perm[i]]
	}
	proxies := make([]int, spec.proxies)
	for i := range proxies {
		proxies[i] = stubs[perm[spec.landmarks+i]]
	}
	cat, err := svc.NewCatalog(spec.catalog)
	if err != nil {
		return nil, err
	}
	caps, err := svc.RandomCapabilities(rng, spec.proxies, cat, spec.minServices, spec.maxServices)
	if err != nil {
		return nil, err
	}
	bootSeed, warmSeed := rng.Int63(), rng.Int63()

	// A traced set-up bootstraps tracedPairs times, each time stage by stage
	// first (keeping only what it compares, so that both passes start from
	// the same heap) and then through core.Bootstrap.
	pairs := 1
	if st != nil {
		pairs = tracedPairs
	}
	var fw *core.Framework
	for i := 0; i < pairs; i++ {
		var staged *bootstrapSummary
		if st != nil {
			if staged, err = stagedBootstrap(st, phys, net, landmarks, proxies, caps, bootSeed); err != nil {
				return nil, fmt.Errorf("staged bootstrap: %w", err)
			}
			runtime.GC()
		}
		if err := st.do("core.bootstrap", func() (err error) {
			fw, err = core.Bootstrap(rand.New(rand.NewSource(bootSeed)), net, landmarks, proxies, caps, core.Config{})
			return err
		}); err != nil {
			return nil, err
		}
		if staged != nil {
			if err := staged.matches(fw.Topology()); err != nil {
				return nil, fmt.Errorf("staged bootstrap: %w", err)
			}
		}
	}
	env := &resolveEnv{spec: spec, topo: fw.Topology(), cat: cat, caps: caps, states: fw.States()}
	if err := st.do("serve.newengine", func() (err error) {
		env.eng, err = serve.NewEngine(env.topo, caps, env.states, serve.Config{})
		return err
	}); err != nil {
		return nil, err
	}
	return env, st.do("bench.warmup", func() error {
		next, err := env.generator(rand.New(rand.NewSource(warmSeed)))
		if err != nil {
			return err
		}
		for d := 0; d < env.n(); d++ {
			req := next()
			req.Dest = d
			if req.Source == d {
				req.Source = (d + 1) % env.n()
			}
			if _, err := env.eng.Resolve(req); err != nil {
				return fmt.Errorf("warm-up to proxy %d: %w", d, err)
			}
		}
		return nil
	})
}

// bootstrapSummary is what a staged bootstrap keeps for the comparison with
// core.Bootstrap's framework: the cluster count and every border pair.
type bootstrapSummary struct {
	clusters int
	borders  [][2]int // pair (a,b), a<b, at index a*clusters+b
}

func (s *bootstrapSummary) matches(want *hfc.Topology) error {
	if s.clusters != want.NumClusters() {
		return fmt.Errorf("%d clusters, core.Bootstrap built %d", s.clusters, want.NumClusters())
	}
	for a := 0; a < s.clusters; a++ {
		for b := a + 1; b < s.clusters; b++ {
			u, v, err := want.Border(a, b)
			if got := s.borders[a*s.clusters+b]; err != nil || got != [2]int{u, v} {
				return fmt.Errorf("border of clusters (%d,%d) is %v, core.Bootstrap elected (%d,%d)", a, b, got, u, v)
			}
		}
	}
	return nil
}

// stagedBootstrap runs core.Bootstrap's pipeline one public call at a time,
// each under its own span, from the inputs core.Bootstrap gets, and checks
// the topology and the converged state it arrives at.
func stagedBootstrap(st *stages, phys *topology.Topology, net *netsim.Network, landmarks, proxies []int, caps []capSet, bootSeed int64) (*bootstrapSummary, error) {
	runtime.GC()
	var cmap *coords.Map
	if err := st.do("coords.buildmap", func() (err error) {
		cmap, _, err = coords.BuildMap(rand.New(rand.NewSource(bootSeed)), net, landmarks, proxies, coreCoordDim, coreProbes)
		return err
	}); err != nil {
		return nil, err
	}
	var clustering *cluster.Result
	if err := st.do("cluster.cluster", func() (err error) {
		clustering, err = cluster.Cluster(cmap.N(), cmap.Dist, cluster.Config{Points: cmap.Points})
		return err
	}); err != nil {
		return nil, err
	}
	var topo *hfc.Topology
	if err := st.do("hfc.build", func() (err error) {
		topo, err = hfc.Build(cmap, clustering)
		return err
	}); err != nil {
		return nil, err
	}
	var states []state.NodeState
	if err := st.do("state.distribute", func() (err error) {
		states, _, err = state.Distribute(topo, caps)
		return err
	}); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := state.VerifyConvergence(topo, caps, states); err != nil {
		return nil, err
	}
	k := topo.NumClusters()
	sum := &bootstrapSummary{clusters: k, borders: make([][2]int, k*k)}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			u, v, err := topo.Border(a, b)
			if err != nil {
				return nil, err
			}
			sum.borders[a*k+b] = [2]int{u, v}
		}
	}

	// One single-source search over the physical graph on the packed
	// representation netsim.New runs its all-pairs computation on.
	csr, err := graph.NewCSR(phys.Graph)
	if err != nil {
		return nil, err
	}
	scratch := graph.NewCSRScratch()
	return sum, st.doN("graph.dijkstra_csr", csr.N(), func() error {
		for s := 0; s < csr.N(); s++ {
			if err := csr.DijkstraInto(s, scratch); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *resolveEnv) n() int                 { return e.topo.N() }
func (e *resolveEnv) numClusters() int       { return e.topo.NumClusters() }
func (e *resolveEnv) clusterOf(node int) int { return e.topo.ClusterOf(node) }

func (e *resolveEnv) resolve(req request) (*path, error) { return e.eng.Resolve(req) }

func (e *resolveEnv) resolveBatch(reqs []request) ([]*path, []error) {
	return e.eng.ResolveBatch(reqs, 1)
}

// update replaces one proxy's services in the engine and in the mirror.
func (e *resolveEnv) update(node int, set capSet) error {
	if err := e.eng.UpdateCapability(node, set); err != nil {
		return err
	}
	e.caps[node] = set
	return nil
}

type serveCounters struct{ hits, misses, resolutions, deduped int64 }

func (e *resolveEnv) counters() serveCounters {
	s := e.eng.Stats()
	return serveCounters{s.Cache.Hits, s.Cache.Misses, s.Resolutions, s.Deduped}
}

func (e *resolveEnv) generator(rng *rand.Rand) (func() request, error) {
	return requestStream(rng, e.caps, e.spec.minLen, e.spec.maxLen)
}

func (e *resolveEnv) freshCaps(rng *rand.Rand) (capSet, error) {
	return randomCapSet(rng, e.cat, e.spec.minServices, e.spec.maxServices)
}

func (e *resolveEnv) check(p *path, req request) error { return checkPath(p, req, e.caps) }

func (e *resolveEnv) stretch(req request, p *path) (float64, time.Duration, error) {
	return stretch(req, p, e.caps, e.topo.Coords())
}

// timedIntra wraps the intra-cluster solver so that every child solve of a
// routed request is a child span of that request's routing.route span.
type timedIntra struct {
	inner  routing.IntraSolver
	tr     *tracer
	parent int32
	op     int64
}

func (t *timedIntra) SolveChild(child routing.ChildRequest) (*routing.Path, error) {
	id := t.tr.begin("routing.solvechild", t.parent, t.op)
	p, err := t.inner.SolveChild(child)
	t.tr.end(id)
	return p, err
}

// replay resolves fresh requests twice: through the engine under one opaque
// span, and through the public calls the engine's miss path is made of,
// assembled as Engine.compute assembles them, each under its own span. The
// two paths must agree hop for hop. It returns how many did not.
//
// The nanosecond-scale front matter (validate, canonicalize, hash, cache
// probe and store) is spanned as one loop over the sample per call, because a
// single call is shorter than two clock readings.
func (e *resolveEnv) replay(tr *tracer, reqs []request) (failed int, err error) {
	indexes := routing.NewLazyIndexes(e.states, func(node int) []int {
		return e.topo.Members(e.topo.ClusterOf(node))
	}, nil)
	intra := &timedIntra{
		inner: &routing.LocalIntraSolver{Topo: e.topo, States: e.states, Indexes: indexes},
		tr:    tr,
	}
	// Like the engine after its warm-up, the replay starts with every
	// destination's view, dense tables and provider index built.
	views := make(map[int]*hfc.NodeView)
	for _, req := range reqs {
		if views[req.Dest] != nil {
			continue
		}
		view, err := e.topo.View(req.Dest)
		if err != nil {
			return failed, err
		}
		// The engine installs its availability set as every view's failure
		// detector; nothing is unavailable here.
		view.Alive = func(int) bool { return true }
		view.Dense()
		views[req.Dest] = view
		indexes.For(req.Dest)
	}
	results := make([]*routing.Result, len(reqs))
	for i, req := range reqs {
		view := views[req.Dest]
		op := replayOpBase + int64(i)
		id := tr.begin("serve.resolve_miss", -1, op)
		want, err := e.eng.Resolve(req)
		tr.end(id)
		if err != nil {
			return failed, fmt.Errorf("replay %d: %w", i, err)
		}
		router := routing.HierarchicalRouter{
			View:            view,
			State:           &e.states[req.Dest],
			Intra:           intra,
			ClusterOfSource: e.topo.ClusterOf,
			Index:           indexes.For(req.Dest),
		}
		intra.op = op
		intra.parent = tr.begin("routing.route", -1, op)
		res, err := router.Route(req)
		tr.end(intra.parent)
		if err != nil {
			return failed, fmt.Errorf("replay %d: decomposed route: %w", i, err)
		}
		results[i] = res
		if !samePath(res.Path, want) {
			failed++
		}
	}

	n := len(reqs)
	canon := make([]string, n)
	keys := make([]routing.CacheKey, n)
	id := tr.begin("svc.validate", -1, -1)
	for _, req := range reqs {
		if err := req.Validate(e.n()); err != nil {
			return failed, err
		}
	}
	tr.endN(id, n)
	id = tr.begin("svc.canonical", -1, -1)
	for i, req := range reqs {
		canon[i] = req.SG.Canonical()
	}
	tr.endN(id, n)
	id = tr.begin("routing.cachekey", -1, -1)
	for i, req := range reqs {
		keys[i] = routing.NewCacheKeyCanonical(req.Source, req.Dest, canon[i])
	}
	tr.endN(id, n)

	cache := routing.NewRouteCache()
	clusters := make([][]int, n)
	for i, res := range results {
		cl := []int{e.topo.ClusterOf(reqs[i].Source), e.topo.ClusterOf(reqs[i].Dest)}
		for _, h := range res.Path.Hops {
			cl = append(cl, e.topo.ClusterOf(h.Node))
		}
		clusters[i] = cl
	}
	version := cache.Version()
	id = tr.begin("routing.cache_get_miss", -1, -1)
	for i := range reqs {
		if _, ok := cache.Get(keys[i], canon[i]); ok {
			return failed, errors.New("replay: empty cache reported a hit")
		}
	}
	tr.endN(id, n)
	id = tr.begin("routing.cache_put", -1, -1)
	for i := range reqs {
		cache.Put(keys[i], canon[i], results[i], clusters[i], version)
	}
	tr.endN(id, n)
	id = tr.begin("routing.cache_get_hit", -1, -1)
	for i := range reqs {
		if v, ok := cache.Get(keys[i], canon[i]); !ok || v.(*routing.Result) != results[i] {
			return failed, errors.New("replay: loaded cache missed its own key")
		}
	}
	tr.endN(id, n)
	return failed, nil
}

// ---- the simulated overlay of the protocol-sim workload ----

type simSpec struct {
	n                        int
	catalog                  int
	minServices, maxServices int
	minLen, maxLen           int
}

// simDelayPerUnit is the virtual link delay per coordinate unit: with a
// positive delay a delivery across at least one unit is an event on the
// virtual clock's heap, not an inline call.
const simDelayPerUnit = 10 * time.Microsecond

type simEnv struct {
	spec simSpec
	topo *hfc.Topology
	cat  *svc.Catalog
	caps []capSet // the benchmark's mirror of the deployment
	sim  *vtime.Sim
	sys  *overlay.System
	// partitioned is the cluster the link policy isolates, -1 for none. It
	// is read on the scheduler's runner, which also runs its writers.
	partitioned int
}

// simPoints re-creates overlay.simPoints: proxies around blobs whose centres
// sit on a jittered grid in a 1000-unit square, σ = spacing/10.
func simPoints(rng *rand.Rand, n, blobs int) []coords.Point {
	if blobs < 16 {
		blobs = 16
	}
	side := int(math.Ceil(math.Sqrt(float64(blobs))))
	spacing := 1000.0 / float64(side)
	sigma := spacing / 10
	centers := make([]coords.Point, blobs)
	for b := range centers {
		row, col := b/side, b%side
		centers[b] = coords.Point{
			(float64(col)+0.5)*spacing + (rng.Float64()-0.5)*spacing/4,
			(float64(row)+0.5)*spacing + (rng.Float64()-0.5)*spacing/4,
		}
	}
	pts := make([]coords.Point, n)
	for i := range pts {
		c := centers[i%blobs]
		pts[i] = coords.Point{c[0] + rng.NormFloat64()*sigma, c[1] + rng.NormFloat64()*sigma}
	}
	return pts
}

// buildSimEnv generates the geometry, clusters it, elects borders and starts
// a flat bi-level overlay on a virtual clock.
func buildSimEnv(spec simSpec, st *stages) (*simEnv, error) {
	rng := rand.New(rand.NewSource(envSeed))
	cmap, err := coords.NewMap(simPoints(rng, spec.n, int(math.Sqrt(float64(spec.n)))))
	if err != nil {
		return nil, err
	}
	var clustering *cluster.Result
	if err := st.do("cluster.cluster", func() (err error) {
		clustering, err = cluster.Cluster(spec.n, cmap.Dist, cluster.Config{Points: cmap.Points, MinClusterSize: 8})
		return err
	}); err != nil {
		return nil, err
	}
	env := &simEnv{spec: spec, partitioned: -1}
	if err := st.do("hfc.build", func() (err error) {
		env.topo, err = hfc.Build(cmap, clustering)
		return err
	}); err != nil {
		return nil, err
	}
	if env.cat, err = svc.NewCatalog(spec.catalog); err != nil {
		return nil, err
	}
	if env.caps, err = svc.RandomCapabilities(rng, spec.n, env.cat, spec.minServices, spec.maxServices); err != nil {
		return nil, err
	}
	return env, st.do("overlay.new_start", func() (err error) {
		env.sim = vtime.NewSim()
		topo := env.topo
		env.sys, err = overlay.New(topo, env.caps, overlay.Config{
			Clock:        env.sim,
			DelayPerUnit: simDelayPerUnit,
			LinkPolicy: func(from, to int, _ overlay.MsgKind) overlay.LinkVerdict {
				p := env.partitioned
				return overlay.LinkVerdict{Drop: p >= 0 && (topo.ClusterOf(from) == p) != (topo.ClusterOf(to) == p)}
			},
		})
		if err != nil {
			return err
		}
		return env.sys.Start()
	})
}

func (e *simEnv) n() int           { return e.topo.N() }
func (e *simEnv) numClusters() int { return e.topo.NumClusters() }

// run executes the script as the virtual clock's first task.
func (e *simEnv) run(script func()) { e.sim.Run(script) }

// round runs one full §4 state round to quiescence.
func (e *simEnv) round() {
	e.sys.TriggerStateRound()
	e.sys.Quiesce()
}

// delivered counts delivered messages: the §4 protocol's, and all kinds.
func (e *simEnv) delivered() (protocol, total int64) {
	t := e.sys.Traffic()
	return int64(t.Local + t.Aggregate), int64(t.Total())
}

func (e *simEnv) virtualNow() time.Duration { return e.sim.Now() }

func (e *simEnv) generator(rng *rand.Rand) (func() request, error) {
	return requestStream(rng, e.caps, e.spec.minLen, e.spec.maxLen)
}

// update installs fresh random services on a node; they propagate on the
// next state round.
func (e *simEnv) update(rng *rand.Rand, node int) error {
	set, err := randomCapSet(rng, e.cat, e.spec.minServices, e.spec.maxServices)
	if err != nil {
		return err
	}
	if err := e.sys.UpdateCapability(node, set); err != nil {
		return err
	}
	e.caps[node] = set
	return nil
}

func (e *simEnv) route(req request) (*path, error) {
	res, err := e.sys.Route(req)
	if err != nil {
		return nil, err
	}
	return res.Path, nil
}

// execute pushes a payload along the path and checks that the services the
// path names were applied, in order.
func (e *simEnv) execute(p *path) error {
	tr, err := e.sys.Execute(p, "x")
	if err != nil {
		return err
	}
	want, got := p.Services(), tr.Services()
	if len(want) != len(got) {
		return fmt.Errorf("executed %d services, path names %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("executed service %d is %q, path names %q", i, got[i], want[i])
		}
	}
	return nil
}

func (e *simEnv) crash(node int) error           { return e.sys.Crash(node) }
func (e *simEnv) recoverNode(node int) error     { return e.sys.Recover(node) }
func (e *simEnv) converged() (bool, error)       { return e.sys.Converged() }
func (e *simEnv) policyDropped() int64           { return int64(e.sys.FaultCounters().DroppedByPolicy) }
func (e *simEnv) stop() error                    { return e.sys.Stop() }
func (e *simEnv) check(p *path, r request) error { return checkPath(p, r, e.caps) }

func (e *simEnv) stretch(req request, p *path) (float64, time.Duration, error) {
	return stretch(req, p, e.caps, e.topo.Coords())
}

// ---- the bare virtual clock ----

// vtimeEvents fires n timers at seeded pseudo-random delays on a bare
// virtual clock and returns the wall time of scheduling and firing them.
func vtimeEvents(n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
	}
	sim := vtime.NewSim()
	fired := 0
	d := timeIt(func() {
		sim.Run(func() {
			for _, delay := range delays {
				sim.AfterFunc(delay, func() { fired++ })
			}
			sim.WaitIdle()
		})
	})
	if fired != n {
		panic(fmt.Sprintf("vtime: %d of %d timers fired", fired, n))
	}
	return d
}

// vtimeHandoffs has two tasks alternate Sleep n times each and returns the
// wall time of the 2n hand-offs.
func vtimeHandoffs(n int) time.Duration {
	sim := vtime.NewSim()
	return timeIt(func() {
		sim.Run(func() {
			sim.Go("peer", func() {
				for i := 0; i < n; i++ {
					sim.Sleep(time.Microsecond)
				}
			})
			for i := 0; i < n; i++ {
				sim.Sleep(time.Microsecond)
			}
		})
	})
}
