package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Seeds of the inputs that do not follow -seed. The environment and the
// stretch sample are the same on every run, so that runs with different
// workload seeds measure the same system and path_stretch repeats exactly.
// So are the proxies resolve-churn updates and the sets it gives them: what
// an update costs depends on the cluster it lands in (the routes it
// invalidates, the state it redistributes), and with some 35 updates in a
// run, drawn per seed, allocs_per_op and bytes_per_op spread 2.9 % and 2.5 %
// over ten seeds (first to third quartile), more than their bound, from that
// alone.
const (
	stretchSeed = 7_001
	replaySeed  = 7_002
	vtimeSeed   = 7_003
	poolSeed    = 7_004
	churnSeed   = 7_005
)

// minWindows is how many windows every timed phase has at least: a traced
// run alternates untraced and traced windows and needs one of each.
const minWindows = 2

// replayOpBase keeps the replay's operation ids apart from the streams'.
const replayOpBase = 1 << 40

// runCfg is one run of one workload.
type runCfg struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: tracing off
	sz      *sizes
	// envRowsKnown: an earlier run of this process has measured the rows of
	// the Table 1 environment, which do not depend on the workload.
	envRowsKnown bool
}

// resolveRun is the state the three resolve-* workloads share: the
// environment, the open result, the meter of the timed phase.
type resolveRun struct {
	cfg runCfg
	env *resolveEnv
	res *result
	m   *meter

	spinBefore time.Duration
	start      serveCounters

	// Paths wait here for their correctness check until the window that
	// produced them has closed; op orders the digest.
	pending []pendingPath
	digest  uint64
	prefix  int64 // operations of the deterministic prefix
}

type pendingPath struct {
	op  int64
	req request
	p   *path
}

const fnvOffset = 14695981039346656037

// prepareResolve builds the environment (several times; setup_s is the
// median), takes the stretch sample and, when tracing, replays the
// decomposed miss path.
func prepareResolve(workload string, cfg runCfg, reps int) (*resolveRun, error) {
	r := &resolveRun{cfg: cfg, res: newResult(workload, cfg), m: &meter{}, digest: fnvOffset}
	var st *stages
	if !cfg.envRowsKnown {
		st = newStages(cfg.tr)
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		r.env = nil
		runtime.GC()
		t0 := time.Now()
		env, err := buildResolveEnv(cfg.sz.resolve, st, cfg.sz.bootstrapPairs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.env = env
	}
	r.res.e2e["setup_s"] = median(setups)
	r.res.note = fmt.Sprintf("%d proxies on %d physical nodes, %d clusters", r.env.n(), cfg.sz.resolve.physical, r.env.numClusters())
	if st != nil {
		bootstrapLayers(st, r.res, cfg.sz.stageSumTol)
	}

	next, err := r.env.generator(rand.New(rand.NewSource(stretchSeed)))
	if err != nil {
		return nil, err
	}
	var ratios, flat []float64
	for i := 0; i < cfg.sz.stretchSample; i++ {
		req := next()
		p, err := r.env.resolve(req)
		if err != nil {
			r.res.fail("stretch sample %d: %v", i, err)
			continue
		}
		id := cfg.tr.begin("routing.findpath_flat", -1, -1)
		ratio, d, err := r.env.stretch(req, p)
		cfg.tr.end(id)
		if err != nil {
			r.res.fail("stretch sample %d: %v", i, err)
			continue
		}
		ratios = append(ratios, ratio)
		flat = append(flat, float64(d)/1e3)
	}
	r.res.e2e["path_stretch"] = mean(ratios)

	if cfg.tr != nil && !cfg.envRowsKnown {
		r.res.layer["routing.findpath_flat_us"] = median(flat)
		next, err := r.env.generator(rand.New(rand.NewSource(replaySeed)))
		if err != nil {
			return nil, err
		}
		reqs := make([]request, cfg.sz.replaySample)
		for i := range reqs {
			reqs[i] = next()
		}
		failed, err := r.env.replay(cfg.tr, reqs)
		if err != nil {
			return nil, err
		}
		if failed > 0 {
			r.res.fail("%d of %d decomposed routes differ from the engine's", failed, len(reqs))
		}
		replayLayers(cfg.tr, r.res.layer)
	}
	return r, nil
}

// begin opens the timed phase.
func (r *resolveRun) begin() {
	runtime.GC()
	r.spinBefore = spin(r.cfg.sz.spin)
	r.start = r.env.counters()
	r.m.opening = true
}

// traceWindow decides whether window w records spans: a traced run
// alternates, so that it also measures the untraced rate.
func (r *resolveRun) traceWindow(w int) bool {
	on := r.cfg.tr != nil && w%2 == 1
	r.cfg.tr.enable(on)
	return on
}

// settle checks the paths of the window just closed and folds those of the
// deterministic prefix into the digest.
func (r *resolveRun) settle() {
	for _, pp := range r.pending {
		if err := r.env.check(pp.p, pp.req); err != nil {
			r.res.fail("op %d: %v", pp.op, err)
			continue
		}
		if pp.op < r.prefix {
			r.digest = foldPath(r.digest^uint64(pp.op), pp.p)
		}
	}
	r.pending = r.pending[:0]
}

// prefixDone is called between the two windows where the stream's
// deterministic prefix ends. It records the serving counters over the prefix
// and the heap the prefix leaves: the same work on every run, whatever
// -seconds says and however fast the box is.
func (r *resolveRun) prefixDone() {
	r.m.opening = false
	r.res.e2e["retained_heap_mb"] = retainedHeap()
	c := r.env.counters()
	hits, misses := c.hits-r.start.hits, c.misses-r.start.misses
	if hits+misses > 0 {
		r.res.layer["serve.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.res.layer["serve.resolutions"] = float64(c.resolutions - r.start.resolutions)
	r.res.layer["serve.deduped"] = float64(c.deduped - r.start.deduped)
}

// finish closes the timed phase and fills the metrics every workload has.
func (r *resolveRun) finish() *result {
	r.cfg.tr.enable(true)
	res := r.res
	spinAfter := spin(r.cfg.sz.spin)
	finishCommon(res, r.m, r.spinBefore, spinAfter, r.cfg.tr != nil, "serve", "serve.resolve")
	res.digest = r.digest
	return res
}

// finishCommon derives the metrics that come from the meter alone. What the
// clock measured goes into the result for the report and, on a traced run,
// into the rows of the layer that does the workload's work: layer names it,
// op the operation whose latency was sampled.
func finishCommon(res *result, m *meter, spinBefore, spinAfter time.Duration, traced bool, layer, op string) {
	res.rate = m.rate(false)
	res.p50, res.p99, res.samples = m.latency()
	res.cpuPerOp = m.cpuPerOp()
	res.e2e["allocs_per_op"], res.e2e["bytes_per_op"] = m.allocsPerOp()
	res.attempted += m.ops()
	shift := float64(spinAfter-spinBefore) / float64(spinBefore)
	res.disturbed = shift > 0.10 || shift < -0.10
	if traced {
		res.layer[layer+".ops_per_s"] = res.rate
		res.layer[layer+".cpu_us_per_op"] = res.cpuPerOp
		res.layer[op+"_p50_us"], res.layer[op+"_p99_us"] = res.p50, res.p99
		res.layer["noise.spin_ns"] = float64(spinBefore+spinAfter) / 2
		if res.rate > 0 {
			res.layer["trace.overhead_ratio"] = m.rate(true) / res.rate
		}
	}
}

// runResolveCold streams never-repeating requests: every one misses the
// cache and runs the whole §5 procedure.
func runResolveCold(cfg runCfg, reps int) (*result, error) {
	r, err := prepareResolve("resolve-cold", cfg, reps)
	if err != nil {
		return nil, err
	}
	sz, tr, m, env := cfg.sz, cfg.tr, r.m, r.env
	next, err := env.generator(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	r.prefix = int64(sz.coldPrefix)
	var queue []request
	var op int64
	r.begin()
	for w := 0; m.wall().Seconds() < cfg.seconds || op < r.prefix || w < minWindows; w++ {
		for len(queue) < sz.coldBatch {
			queue = append(queue, next())
		}
		limit := len(queue)
		if left := r.prefix - op; left > 0 && int64(limit) > left {
			limit = int(left) // the prefix ends on a window boundary
		}
		traced := r.traceWindow(w)
		m.start()
		n := 0
		for n < limit {
			req := queue[n]
			t0 := time.Now()
			id := tr.begin("serve.resolve_miss", -1, op+int64(n))
			p, err := env.resolve(req)
			tr.end(id)
			t1 := time.Now()
			m.sample(t1.Sub(t0))
			if err != nil {
				r.res.fail("op %d: %v", op+int64(n), err)
			} else {
				r.pending = append(r.pending, pendingPath{op + int64(n), req, p})
			}
			n++
			if t1.Sub(m.t0) >= sz.window {
				break
			}
		}
		m.stop(int64(n), traced)
		r.settle()
		op += int64(n)
		queue = append(queue[:0], queue[n:]...)
		if op == r.prefix {
			r.prefixDone()
		}
	}
	if c := env.counters(); c.hits != r.start.hits {
		r.res.fail("%d requests of the cold stream hit the cache", c.hits-r.start.hits)
	}
	res := r.finish()
	res.phases = []phase{{"timed", m.wall().Seconds(), m.ops()}}
	if tr != nil {
		res.layer["serve.resolve_miss_us"] = median(tr.perCall("serve.resolve_miss")) / 1e3
	}
	return res, nil
}

// hotStream is a fixed pool of distinct requests, each resolved once so the
// cache holds it, and a stream of pool ranks drawn Zipf(s). Skewing ranks,
// not services, is what makes requests repeat: svc.ZipfRequestGenerator
// skews services and, with random endpoints, never repeats a request.
//
// The pool does not follow -seed, only the rank stream does: a quarter of
// the stream is the pool's first request, so a per-seed pool would make the
// length of one service graph (4 to 10) the cost of the whole run.
type hotStream struct {
	pool  []request
	last  []*path // the path each pool request last resolved to
	ranks []uint16
	pos   int
}

func newHotStream(r *resolveRun) (*hotStream, error) {
	sz := r.cfg.sz
	next, err := r.env.generator(rand.New(rand.NewSource(poolSeed)))
	if err != nil {
		return nil, err
	}
	hs := &hotStream{last: make([]*path, sz.pool)}
	seen := make(map[string]bool, sz.pool)
	for len(hs.pool) < sz.pool {
		req := next()
		if key := requestKey(req); !seen[key] {
			seen[key] = true
			hs.pool = append(hs.pool, req)
		}
	}
	for i, req := range hs.pool {
		p, err := r.env.resolve(req)
		if err != nil {
			return nil, fmt.Errorf("warming pool request %d: %w", i, err)
		}
		if err := r.env.check(p, req); err != nil {
			return nil, fmt.Errorf("warming pool request %d: %w", i, err)
		}
		hs.last[i] = p
		r.digest = foldPath(r.digest, p)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(r.cfg.seed)), sz.zipfS, 1, uint64(sz.pool-1))
	hs.ranks = make([]uint16, sz.stream)
	for i := range hs.ranks {
		hs.ranks[i] = uint16(zipf.Uint64())
	}
	return hs, nil
}

func (hs *hotStream) next() int {
	rank := int(hs.ranks[hs.pos])
	if hs.pos++; hs.pos == len(hs.ranks) {
		hs.pos = 0
	}
	return rank
}

// chunk is how many requests the hot loops issue between two looks at the
// clock; one request in latencyEvery is timed.
const (
	chunk        = 256
	latencyEvery = 16
)

// issue resolves n requests of the stream one by one, as phase A and the
// churn workload do. New paths (there are none while every request hits)
// queue for their check. In a traced window the timed requests get a span,
// classified hit or miss by whether the engine's resolution count advanced.
func (r *resolveRun) issue(hs *hotStream, op int64, n int, traced bool) {
	env, m, tr := r.env, r.m, r.cfg.tr
	for i := 0; i < n; i++ {
		rank := hs.next()
		req := hs.pool[rank]
		var p *path
		var err error
		switch {
		case i%latencyEvery != 0:
			p, err = env.resolve(req)
		case !traced:
			t0 := time.Now()
			p, err = env.resolve(req)
			m.sample(time.Since(t0))
		default:
			before := env.counters().resolutions
			t0 := time.Now()
			id := tr.begin("serve.resolve", -1, op+int64(i))
			p, err = env.resolve(req)
			tr.end(id)
			m.sample(time.Since(t0))
			if env.counters().resolutions == before {
				tr.rename(id, "serve.resolve_hit")
			} else {
				tr.rename(id, "serve.resolve_miss")
			}
		}
		if err != nil {
			r.res.fail("op %d: %v", op+int64(i), err)
			continue
		}
		if p != hs.last[rank] {
			hs.last[rank] = p
			r.pending = append(r.pending, pendingPath{op + int64(i), req, p})
		}
	}
}

// runResolveHot resolves the Zipf stream request by request (phase A, half
// the run), then submits the same stream in blocks through ResolveBatch
// (phase B). Every request hits the cache; the solvers do nothing.
func runResolveHot(cfg runCfg, reps int) (*result, error) {
	r, err := prepareResolve("resolve-hot", cfg, reps)
	if err != nil {
		return nil, err
	}
	sz, m := cfg.sz, r.m
	hs, err := newHotStream(r)
	if err != nil {
		return nil, err
	}
	r.prefix = int64(sz.hotPrefix)
	var op int64
	r.begin()
	for w := 0; m.wall().Seconds() < cfg.seconds/2 || op < r.prefix || w < minWindows; w++ {
		traced := r.traceWindow(w)
		m.start()
		n := 0
		for {
			r.issue(hs, op+int64(n), chunk, traced)
			n += chunk
			// The prefix ends on a window boundary.
			if op+int64(n) == r.prefix || m.elapsed() >= sz.window {
				break
			}
		}
		m.stop(int64(n), traced)
		r.settle()
		if op += int64(n); op == r.prefix {
			r.prefixDone()
		}
	}
	res := r.finish()

	// Phase B: the same stream from its start, in blocks. Its windows are
	// metered apart, so that the per-operation costs stay phase A's.
	mb := &meter{}
	hs.pos = 0
	block := make([]request, sz.batchBlock)
	ranks := make([]int, sz.batchBlock)
	var unique []float64
	distinct := make(map[int]struct{}, sz.batchBlock)
	for w := 0; mb.wall().Seconds() < cfg.seconds/2 || w < minWindows; w++ {
		traced := r.traceWindow(w)
		mb.start()
		n := 0
		for mb.elapsed() < sz.window {
			for i := range block {
				ranks[i] = hs.next()
				block[i] = hs.pool[ranks[i]]
			}
			id := cfg.tr.begin("serve.resolve_batch", -1, -1)
			paths, errs := r.env.resolveBatch(block)
			cfg.tr.endN(id, len(block))
			for i, p := range paths {
				if errs[i] != nil {
					res.fail("batched request %d: %v", n+i, errs[i])
				} else if p != hs.last[ranks[i]] && !samePath(p, hs.last[ranks[i]]) {
					res.fail("batched request %d resolved to %v, one by one to %v", n+i, p, hs.last[ranks[i]])
				}
			}
			if traced {
				clear(distinct)
				for _, rank := range ranks {
					distinct[rank] = struct{}{}
				}
				unique = append(unique, float64(len(distinct))/float64(len(ranks)))
			}
			n += len(block)
		}
		mb.stop(int64(n), traced)
	}
	cfg.tr.enable(true)
	res.attempted += mb.ops()
	res.phases = []phase{{"A: Resolve", m.wall().Seconds(), m.ops()}, {"B: ResolveBatch", mb.wall().Seconds(), mb.ops()}}
	if cfg.tr != nil {
		res.layer["serve.resolve_hit_ns"] = median(cfg.tr.perCall("serve.resolve_hit"))
		res.layer["serve.batch_ops_per_s"] = mb.rate(false)
		res.layer["serve.batch_ns_per_req"] = median(cfg.tr.perCall("serve.resolve_batch"))
		res.layer["serve.batch_unique_ratio"] = mean(unique)
	}
	return res, nil
}

// runResolveChurn is phase A's stream with one capability update every
// updateEvery requests. A window is one update and the requests up to the
// next, so serve.ops_per_s includes the update's cost.
func runResolveChurn(cfg runCfg, reps int) (*result, error) {
	r, err := prepareResolve("resolve-churn", cfg, reps)
	if err != nil {
		return nil, err
	}
	sz, m, env, tr, res := cfg.sz, r.m, r.env, cfg.tr, r.res
	hs, err := newHotStream(r)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(churnSeed))
	r.prefix = int64(sz.churnPrefixUpdates * sz.updateEvery)
	var op int64
	var updates, missesAfter []float64
	r.begin()
	for w := 0; m.wall().Seconds() < cfg.seconds || op < r.prefix || w < minWindows; w++ {
		node := rng.Intn(env.n())
		set, err := env.freshCaps(rng)
		if err != nil {
			return nil, err
		}
		// A pool request whose cached route depends on the node's cluster:
		// after the update its next resolve must be a fresh computation.
		victim := -1
		for rank, p := range hs.last {
			if touches(env, p, env.clusterOf(node)) {
				victim = rank
				break
			}
		}
		traced := r.traceWindow(w)
		m.start()
		t0 := time.Now()
		id := tr.begin("serve.update", -1, op)
		err = env.update(node, set)
		tr.end(id)
		updates = append(updates, float64(time.Since(t0))/1e6)
		if err != nil {
			res.fail("update %d: %v", w, err)
		}
		after := env.counters()
		if victim >= 0 {
			p, err := env.resolve(hs.pool[victim])
			switch {
			case err != nil:
				res.fail("update %d: invalidated request: %v", w, err)
			case env.counters().resolutions != after.resolutions+1 || p == hs.last[victim]:
				res.fail("update %d: invalidated request %d was served from a pre-update entry", w, victim)
			default:
				hs.last[victim] = p
				r.pending = append(r.pending, pendingPath{op, hs.pool[victim], p})
			}
		}
		r.issue(hs, op, sz.missesWindow, traced)
		if traced {
			missesAfter = append(missesAfter, float64(env.counters().misses-after.misses))
		}
		r.issue(hs, op+int64(sz.missesWindow), sz.updateEvery-sz.missesWindow, traced)
		m.stop(int64(sz.updateEvery), traced)
		r.settle()
		if op += int64(sz.updateEvery); op == r.prefix {
			r.prefixDone()
		}
	}
	res = r.finish()
	res.phases = []phase{{"timed", m.wall().Seconds(), m.ops()}}
	res.note += fmt.Sprintf(", %d updates", len(updates))
	if tr != nil {
		res.layer["serve.update_ms"] = median(updates)
		res.layer["serve.misses_after_update"] = mean(missesAfter)
	}
	return res, nil
}

// touches reports whether a path has a hop in the cluster (its endpoints
// are hops too), which is when the engine stamps the cached route with it.
func touches(env *resolveEnv, p *path, cluster int) bool {
	for _, h := range p.Hops {
		if env.clusterOf(h.Node) == cluster {
			return true
		}
	}
	return false
}
