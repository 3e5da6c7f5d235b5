package overlay

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/mlhfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
	"hfc/internal/vtime"
)

// SimSpec configures one seeded end-to-end simulation: a generated
// geometric overlay of N proxies driven through convergence, capability
// churn, a cluster partition, and crash/recovery cycles entirely on a
// virtual clock. Every run with the same (spec, seed) produces a
// byte-identical Trace and StateDigest — the FoundationDB-style property
// that turns "it flaked once at 3am" into "replay seed 1742".
type SimSpec struct {
	// N is the overlay size (>= 16).
	N int
	// Multilevel switches to the tri-level mlhfc hierarchy: one overlay
	// runtime per group on a shared scheduler, with the super-aggregate
	// layer maintained by the harness. Required past ~50k nodes, where a
	// flat §4 round's 2n^1.5 messages stop fitting in a test budget.
	Multilevel bool
	// Groups fixes the multilevel fan-out (0 picks n^⅓, the balanced
	// tri-level split).
	Groups int
	// Rounds is the number of state rounds per convergence phase
	// (default 2 — local flood, then aggregate exchange settles).
	Rounds int
	// Churn is how many capability-churn events to inject.
	Churn int
	// Crashes is how many crash/recover cycles to run.
	Crashes int
	// Partition, when true, isolates one cluster for a round and then
	// heals it.
	Partition bool
	// Probes is how many route probes to issue per probe phase.
	Probes int
	// MeasureImprecision additionally solves every flat-mode probe with
	// the optimal flat router and reports the mean length ratio
	// (hierarchical / optimal) — the Fig. 10 imprecision signal. Ignored
	// in multilevel mode.
	MeasureImprecision bool
	// DelayPerUnit, when positive, charges Dist(u,v)·DelayPerUnit of
	// virtual time per delivery (free under virtual time, but it shuffles
	// event order realistically).
	DelayPerUnit time.Duration
}

func (spec SimSpec) withDefaults() SimSpec {
	if spec.Rounds == 0 {
		spec.Rounds = 2
	}
	return spec
}

// SimReport is the outcome of one Simulate run.
type SimReport struct {
	// N, Clusters, and Groups describe the generated topology (Groups is
	// 0 in flat mode; Clusters sums the per-group interiors in multilevel
	// mode).
	N, Clusters, Groups int
	// Rounds counts the state rounds actually triggered.
	Rounds int
	// Traffic totals delivered runtime messages (summed over the
	// per-group runtimes in multilevel mode).
	Traffic TrafficStats
	// Faults totals fault-path events the same way.
	Faults FaultStats
	// SuperMessages counts the harness-level super-aggregate exchange
	// messages (multilevel only).
	SuperMessages int
	// Probes and ProbeFailures count route probes issued and failed.
	Probes, ProbeFailures int
	// MaxRelayRun is the longest run of consecutive pure-relay hops seen
	// in any probed path — the §5 bound says <= 2 for bi-level routing
	// (one border pair per cluster crossing).
	MaxRelayRun int
	// MeanImprecision is the mean hierarchical/optimal path-length ratio
	// (0 when not measured).
	MeanImprecision float64
	// Converged reports the final ground-truth convergence check.
	Converged bool
	// VirtualTime is the simulated clock at the end of the run.
	VirtualTime time.Duration
	// Trace is the deterministic event log: byte-identical across runs
	// with the same spec and seed.
	Trace string
	// StateDigest is an order-independent FNV digest of every node's
	// final converged state.
	StateDigest uint64
}

// simPoints is the simulation workload generator: proxies drawn around
// `blobs` Gaussian blobs in a 1000-unit square, the workload family the
// construction gates measure. Callers pick the blob count to land cluster
// sizes near the paper's per-round traffic optimum for their mode — with
// a fixed count, per-cluster membership (and hence local-flood traffic
// per round) would grow as O(n²). Centers sit on a jittered grid rather
// than uniform-random positions: at hundreds of blobs, random centers
// frequently land close enough to chain neighbouring blobs into one MST
// cluster, collapsing K and with it the whole traffic model.
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

// simPointsHier is simPoints with one more level of structure: `groups`
// superblobs on a coarse jittered grid, each holding `blobsPerGroup` blobs
// on its own fine grid, with every length scale an order of magnitude
// below the one above (group gap ≫ blob gap ≫ blob radius). The MST
// therefore cuts group-separating edges first and blob-separating edges
// second — the hierarchical workload the tri-level builder is meant for.
func simPointsHier(rng *rand.Rand, n, groups, blobsPerGroup int) []coords.Point {
	if blobsPerGroup < 1 {
		blobsPerGroup = 1
	}
	sideG := int(math.Ceil(math.Sqrt(float64(groups))))
	spacingG := 1000.0 / float64(sideG)
	sideB := int(math.Ceil(math.Sqrt(float64(blobsPerGroup))))
	span := spacingG * 0.5
	spacingB := span / float64(sideB)
	sigma := spacingB / 10
	centers := make([]coords.Point, groups*blobsPerGroup)
	for g := 0; g < groups; g++ {
		gRow, gCol := g/sideG, g%sideG
		gx := (float64(gCol)+0.5)*spacingG + (rng.Float64()-0.5)*spacingG/8
		gy := (float64(gRow)+0.5)*spacingG + (rng.Float64()-0.5)*spacingG/8
		for b := 0; b < blobsPerGroup; b++ {
			bRow, bCol := b/sideB, b%sideB
			centers[g*blobsPerGroup+b] = coords.Point{
				gx - span/2 + (float64(bCol)+0.5)*spacingB + (rng.Float64()-0.5)*spacingB/4,
				gy - span/2 + (float64(bRow)+0.5)*spacingB + (rng.Float64()-0.5)*spacingB/4,
			}
		}
	}
	pts := make([]coords.Point, n)
	for i := range pts {
		c := centers[i%len(centers)]
		pts[i] = coords.Point{c[0] + rng.NormFloat64()*sigma, c[1] + rng.NormFloat64()*sigma}
	}
	return pts
}

// maxRelayRun returns the longest run of consecutive relay (service-free,
// non-endpoint) hops in the path.
func maxRelayRun(p *routing.Path) int {
	best, run := 0, 0
	for i, h := range p.Hops {
		if i > 0 && i < len(p.Hops)-1 && h.Service == "" {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return best
}

// digestStates folds every learned (node, table, origin, services) entry of
// the final protocol state into one digest: each entry is FNV-hashed on its
// own and XORed in. members(i) is the sorted member list states[i].SCTP is
// aligned with, which names an entry's origin.
func digestStates(states []state.NodeState, members func(i int) []int) uint64 {
	var acc uint64
	// Simulation states alias shared capability sets (every SCTP entry for
	// one origin is the same map; every SCTC entry for one cluster is the
	// border's shared aggregate), so hash each distinct set once, keyed by
	// map identity. Identity is only a cache key — two different maps with
	// equal content simply hash twice to the same value.
	setMemo := make(map[uintptr]uint64, len(states))
	setHash := func(set svc.CapabilitySet) uint64 {
		key := reflect.ValueOf(set).Pointer()
		if h, ok := setMemo[key]; ok && key != 0 {
			return h
		}
		h := fnv.New64a()
		for _, s := range set.Sorted() {
			// hash.Hash writes never fail.
			_, _ = h.Write([]byte(s))
			_, _ = h.Write([]byte{','})
		}
		sum := h.Sum64()
		if key != 0 {
			setMemo[key] = sum
		}
		return sum
	}
	entry := func(node int, table string, key int, set svc.CapabilitySet) {
		h := fnv.New64a()
		_, _ = fmt.Fprintf(h, "%d|%s|%d|%016x", node, table, key, setHash(set))
		acc ^= h.Sum64()
	}
	for i, st := range states {
		origins := members(i)
		for r, set := range st.SCTP {
			if set != nil {
				entry(st.Node, "p", origins[r], set)
			}
		}
		for cl, set := range st.SCTC {
			if set != nil {
				entry(st.Node, "c", cl, set)
			}
		}
	}
	return acc
}

// Simulate builds a seeded overlay and drives it through convergence,
// churn, partition, and crash phases on a virtual clock, returning the
// deterministic report. Runs are single-threaded discrete-event
// executions: n=32k flat or n=100k multilevel finish in seconds of wall
// time while simulating minutes of protocol timeouts.
func Simulate(spec SimSpec, seed int64) (*SimReport, error) {
	spec = spec.withDefaults()
	if spec.N < 16 {
		return nil, fmt.Errorf("overlay: simulate N=%d too small (need >= 16)", spec.N)
	}
	if spec.Multilevel && spec.Partition {
		return nil, errors.New("overlay: simulate: Partition is not supported with Multilevel")
	}
	rng := rand.New(rand.NewSource(seed))
	cat, err := svc.NewCatalog(12)
	if err != nil {
		return nil, err
	}
	sim := vtime.NewSim()
	build := newFlatWorld
	if spec.Multilevel {
		build = newMultilevelWorld
	}
	w, err := build(spec, rng, cat, sim)
	if err != nil {
		return nil, err
	}
	return w.run(spec, seed, rng, cat, sim)
}

// run starts the world's runtimes and drives them through the scenario, on
// the clock and the random stream they were built with.
func (w *simWorld) run(spec SimSpec, seed int64, rng *rand.Rand, cat *svc.Catalog, sim *vtime.Sim) (*SimReport, error) {
	for _, sys := range w.systems {
		if err := sys.Start(); err != nil {
			return nil, err
		}
		defer func() { _ = sys.Stop() }()
	}

	rep := &SimReport{N: spec.N, Clusters: w.clusters, Groups: w.groups}
	tr := &simTrace{}
	partition := ""
	if w.isolate != nil {
		partition = fmt.Sprintf(" partition=%v", spec.Partition)
	}
	tr.f("sim seed=%d mode=%s rounds=%d churn=%d crashes=%d%s probes=%d",
		seed, w.mode, spec.Rounds, spec.Churn, spec.Crashes, partition, spec.Probes)

	converge := func(label string, rounds int) {
		for i := 0; i < rounds; i++ {
			for _, sys := range w.systems {
				sys.TriggerStateRound()
			}
			// One wait drains every runtime's cascade: they share the
			// scheduler.
			w.systems[0].Quiesce()
			rep.Rounds++
			rep.SuperMessages += w.superPerRound
			tr.f("round %d (%s): %st=%v", rep.Rounds, label, w.roundFields(), sim.Now())
		}
	}

	measure := spec.MeasureImprecision && !spec.Multilevel
	var imprecisions []float64
	probePhase := func(label string) error {
		if spec.Probes == 0 {
			return nil
		}
		cur := make([]svc.CapabilitySet, spec.N)
		for g, sys := range w.systems {
			for local, set := range sys.Capabilities() {
				cur[w.global(g, local)] = set
			}
		}
		gen, err := svc.NewRequestGenerator(rng, cur, 2, 4)
		if err != nil {
			return err
		}
		provs := routing.CapabilityProviders(cur)
		oracle := routing.OracleFunc(w.cmap.Dist)
		route, done := w.prober(cur)
		defer done()
		for i := 0; i < spec.Probes; i++ {
			req, err := gen.Next()
			if err != nil {
				return err
			}
			path, fields, err := route(req)
			rep.Probes++
			if err != nil {
				rep.ProbeFailures++
				tr.f("probe %s/%d: FAIL %v", label, i, err)
				continue
			}
			run := maxRelayRun(path)
			if run > rep.MaxRelayRun {
				rep.MaxRelayRun = run
			}
			if err := path.Validate(req, cur); err != nil {
				return fmt.Errorf("overlay: simulate probe %s/%d invalid path: %w", label, i, err)
			}
			tr.f("probe %s/%d: %shops=%d relayrun=%d", label, i, fields, len(path.Hops), run)
			if measure {
				opt, err := routing.FindPath(req, provs, oracle, nil)
				if err != nil {
					return fmt.Errorf("overlay: simulate probe %s/%d optimal: %w", label, i, err)
				}
				if ol := opt.Length(w.cmap.Dist); ol > 0 {
					imprecisions = append(imprecisions, path.Length(w.cmap.Dist)/ol)
				}
			}
		}
		return nil
	}

	var simErr error
	sim.Run(func() {
		converge("initial", spec.Rounds)
		if simErr = probePhase("pre"); simErr != nil {
			return
		}
		for i := 0; i < spec.Churn; i++ {
			victim := rng.Intn(spec.N)
			g, local := w.locate(victim)
			fresh, err := svc.RandomCapabilities(rng, 1, cat, 2, 5)
			if err != nil {
				simErr = err
				return
			}
			if simErr = w.systems[g].UpdateCapability(local, fresh[0]); simErr != nil {
				return
			}
			tr.f("churn %d: node %d%s -> %d services", i, victim, w.tag(g), fresh[0].Len())
		}
		if spec.Churn > 0 {
			converge("churn", spec.Rounds)
		}
		if spec.Partition {
			cut := rng.Intn(w.clusters)
			w.isolate(cut)
			tr.f("partition: isolate cluster %d", cut)
			converge("partitioned", 1)
			w.isolate(-1)
			tr.f("partition: healed (policy dropped %d)", w.systems[0].FaultCounters().DroppedByPolicy)
			converge("healed", spec.Rounds)
		}
		for i := 0; i < spec.Crashes; i++ {
			victim := rng.Intn(spec.N)
			g, local := w.locate(victim)
			if simErr = w.systems[g].Crash(local); simErr != nil {
				return
			}
			tr.f("crash %d: node %d%s", i, victim, w.tag(g))
			converge("crashed", 1)
			if simErr = w.systems[g].Recover(local); simErr != nil {
				return
			}
			tr.f("recover %d: node %d", i, victim)
		}
		if spec.Crashes > 0 {
			converge("recovered", spec.Rounds)
		}
		simErr = probePhase("post")
	})
	if simErr != nil {
		return nil, simErr
	}

	rep.Converged = true
	for _, sys := range w.systems {
		ok, err := sys.Converged()
		if err != nil {
			return nil, err
		}
		rep.Converged = rep.Converged && ok
		rep.Traffic.add(sys.Traffic())
		rep.Faults.add(sys.FaultCounters())
	}
	rep.StateDigest = w.digest()
	rep.VirtualTime = sim.Now()
	if len(imprecisions) > 0 {
		sum := 0.0
		for _, r := range imprecisions {
			sum += r
		}
		rep.MeanImprecision = sum / float64(len(imprecisions))
	}
	super := ""
	if w.groups > 0 {
		super = fmt.Sprintf(" super=%d", rep.SuperMessages)
	}
	tr.f("final: converged=%v relaymax=%d virtual=%v%s digest=%016x",
		rep.Converged, rep.MaxRelayRun, rep.VirtualTime, super, rep.StateDigest)
	rep.Trace = tr.b.String()
	return rep, nil
}

// digest folds every runtime's tables into one state digest, over GLOBAL node
// ids so two different groupings of the same facts cannot collide; the digest
// XORs entries, so it folds one runtime at a time.
func (w *simWorld) digest() uint64 {
	var acc uint64
	for g, sys := range w.systems {
		states, release := sys.tables()
		for local := range states {
			states[local].Node = w.global(g, local)
		}
		acc ^= digestStates(states, func(local int) []int { return sys.nodes[local].view.Members })
		release()
	}
	return acc
}

// simTrace accumulates the deterministic event log.
type simTrace struct {
	b strings.Builder
}

func (t *simTrace) f(format string, args ...interface{}) {
	fmt.Fprintf(&t.b, format+"\n", args...)
}

// simWorld is what the one scenario script in Simulate drives: the overlay
// runtimes sharing a virtual clock — one in flat mode, one per group in
// multilevel mode — and everything that depends on which of the two it is.
type simWorld struct {
	cmap    *coords.Map
	systems []*System
	// clusters and groups describe the topology as SimReport does.
	clusters, groups int
	// locate maps a global proxy id to its runtime and its id there; global
	// is the inverse.
	locate func(node int) (g, local int)
	global func(g, local int) int
	// prober opens a probe phase over the deployment cur. route answers one
	// probe with its path; done ends the phase.
	prober func(cur []svc.CapabilitySet) (route func(svc.Request) (*routing.Path, string, error), done func())
	// isolate cuts one cluster off from the rest (-1 heals); nil where the
	// mode has no partition phase.
	isolate func(cluster int)
	// superPerRound is the harness-level super-aggregate traffic one state
	// round stands for (multilevel only).
	superPerRound int
	// The mode's trace fields: mode opens the first line, roundFields goes
	// on every round line, tag follows a node id (route's string return is
	// the probe line's).
	mode        string
	roundFields func() string
	tag         func(g int) string
}

// newFlatWorld builds the bi-level world: one runtime over all N proxies,
// probes routed through it by RPC, a link policy that can isolate a cluster.
func newFlatWorld(spec SimSpec, rng *rand.Rand, cat *svc.Catalog, sim *vtime.Sim) (*simWorld, error) {
	// Bi-level optimum: |C| ≈ K ≈ √n balances the per-round local floods
	// (n·|C|) against the aggregate re-floods (n·(K-1)).
	cmap, err := coords.NewMap(simPoints(rng, spec.N, int(math.Sqrt(float64(spec.N)))))
	if err != nil {
		return nil, err
	}
	clustering, err := cluster.Cluster(spec.N, cmap.Dist, cluster.Config{
		Points:         cmap.Points,
		MinClusterSize: 8,
	})
	if err != nil {
		return nil, fmt.Errorf("overlay: simulate cluster: %w", err)
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		return nil, fmt.Errorf("overlay: simulate build: %w", err)
	}
	caps, err := svc.RandomCapabilities(rng, spec.N, cat, 2, 5)
	if err != nil {
		return nil, err
	}
	// The partition filter is read on the scheduler runner (baton-ordered
	// with its writer, the script), so a plain variable suffices.
	partitioned := -1
	sys, err := New(topo, caps, Config{
		Clock:        sim,
		DelayPerUnit: spec.DelayPerUnit,
		LinkPolicy: func(from, to int, kind MsgKind) LinkVerdict {
			if partitioned >= 0 &&
				(topo.ClusterOf(from) == partitioned) != (topo.ClusterOf(to) == partitioned) {
				return LinkVerdict{Drop: true}
			}
			return LinkVerdict{}
		},
	})
	if err != nil {
		return nil, err
	}
	return &simWorld{
		cmap:     cmap,
		systems:  []*System{sys},
		clusters: topo.NumClusters(),
		locate:   func(node int) (int, int) { return 0, node },
		global:   func(_, local int) int { return local },
		prober: func([]svc.CapabilitySet) (func(svc.Request) (*routing.Path, string, error), func()) {
			return func(req svc.Request) (*routing.Path, string, error) {
				res, err := sys.Route(req)
				if err != nil {
					return nil, "", err
				}
				return res.Path, "", nil
			}, func() {}
		},
		isolate: func(cluster int) { partitioned = cluster },
		mode:    fmt.Sprintf("flat n=%d clusters=%d", spec.N, topo.NumClusters()),
		roundFields: func() string {
			tf := sys.Traffic()
			return fmt.Sprintf("local=%d agg=%d ", tf.Local, tf.Aggregate)
		},
		tag: func(int) string { return "" },
	}, nil
}

// newMultilevelWorld builds the tri-level hierarchy: every group's interior
// is a complete overlay runtime over its GroupCaps on the shared virtual
// clock, and the harness plays the super layer — per-group super-aggregates,
// their exchange accounted by SuperMessages — exactly as mlhfc.Distribute
// models it synchronously. Probes are resolved by mlhfc.Route over the
// runtimes' live tables.
func newMultilevelWorld(spec SimSpec, rng *rand.Rand, cat *svc.Catalog, sim *vtime.Sim) (*simWorld, error) {
	// Tri-level optimum: groups ≈ clusters-per-group ≈ |C| ≈ n^⅓, so each
	// level fans out evenly and the per-round flood volume stays near
	// n·n^⅓. The workload carries that hierarchy in its geometry
	// (superblobs of blobs), so the topology builder discovers balanced
	// groups instead of carving a uniform centroid grid into one giant
	// component plus slivers.
	groups := spec.Groups
	if groups == 0 {
		groups = int(math.Round(math.Cbrt(float64(spec.N))))
	}
	if groups < 2 {
		groups = 2
	}
	blobsPerGroup := int(math.Round(math.Pow(float64(spec.N), 2.0/3.0))) / groups
	cmap, err := coords.NewMap(simPointsHier(rng, spec.N, groups, blobsPerGroup))
	if err != nil {
		return nil, err
	}
	mlCfg := mlhfc.DefaultConfig()
	mlCfg.Inner.Points = cmap.Points
	mlCfg.Inner.MinClusterSize = 8
	mlCfg.TargetGroups = groups
	topo, err := mlhfc.Build(cmap, mlCfg)
	if err != nil {
		return nil, fmt.Errorf("overlay: simulate mlhfc build: %w", err)
	}
	caps, err := svc.RandomCapabilities(rng, spec.N, cat, 2, 5)
	if err != nil {
		return nil, err
	}
	k := topo.NumGroups()
	w := &simWorld{
		cmap:   cmap,
		groups: k,
		locate: func(node int) (int, int) { return topo.GroupOf(node), topo.ToLocal(node) },
		global: topo.ToGlobal,
		// Each group ships its aggregate to every other group's super
		// border, which re-floods it internally: the super tier's §4 round,
		// counted exactly as mlhfc.Distribute does.
		superPerRound: topo.SuperMessages().Total(),
		roundFields:   func() string { return "" },
		tag:           func(g int) string { return fmt.Sprintf(" (group %d)", g) },
	}
	for g := 0; g < k; g++ {
		sys, err := New(topo.Interior(g), topo.GroupCaps(caps, g), Config{Clock: sim, DelayPerUnit: spec.DelayPerUnit})
		if err != nil {
			return nil, fmt.Errorf("overlay: simulate group %d: %w", g, err)
		}
		w.systems = append(w.systems, sys)
		w.clusters += topo.Interior(g).NumClusters()
	}
	w.mode = fmt.Sprintf("multilevel n=%d groups=%d clusters=%d", spec.N, k, w.clusters)
	w.prober = func(cur []svc.CapabilitySet) (func(svc.Request) (*routing.Path, string, error), func()) {
		// The routing view aliases every runtime's live tables — no clones —
		// and each group's super-aggregate is the union of its deployment.
		st := &mlhfc.States{PerGroup: make([][]state.NodeState, k), Super: make([]svc.CapabilitySet, k)}
		releases := make([]func(), k)
		for g, sys := range w.systems {
			st.PerGroup[g], releases[g] = sys.tables()
			st.Super[g] = svc.Union(topo.GroupCaps(cur, g)...)
		}
		route := func(req svc.Request) (*routing.Path, string, error) {
			res, err := mlhfc.Route(topo, st, req)
			if err != nil {
				return nil, "", err
			}
			return res.Path, fmt.Sprintf("groups=%d ", len(res.Children)), nil
		}
		return route, func() {
			for _, release := range releases {
				release()
			}
		}
	}
	return w, nil
}

// add accumulates another runtime's counters.
func (t *TrafficStats) add(o TrafficStats) {
	t.Local += o.Local
	t.Aggregate += o.Aggregate
	t.Route += o.Route
	t.Child += o.Child
	t.Data += o.Data
}

func (f *FaultStats) add(o FaultStats) {
	f.Dropped += o.Dropped
	f.DroppedToCrashed += o.DroppedToCrashed
	f.DroppedAfterStop += o.DroppedAfterStop
	f.DroppedBackpressure += o.DroppedBackpressure
	f.StaleRejected += o.StaleRejected
	f.RPCRetries += o.RPCRetries
	f.ResolverFailovers += o.ResolverFailovers
	f.DroppedByPolicy += o.DroppedByPolicy
	f.DuplicatedByPolicy += o.DuplicatedByPolicy
	f.DegradedRoutes += o.DegradedRoutes
}
