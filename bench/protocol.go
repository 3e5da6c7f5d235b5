package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// The script's fixed points: the cycles every run completes (the
// deterministic prefix), the cycle with the partition, and the cycles with a
// crash (2, 7, 12, …).
const (
	simMinCycles      = 3
	simPartitionCycle = 1
	simCrashEvery     = 5
	simCrashPhase     = 2
)

// roundKind classes a state round for the per-layer rows.
type roundKind int

const (
	roundCold   roundKind = iota // the two rounds that converge a fresh overlay
	roundSteady                  // a fault-free round after them
	roundFault                   // a round under a partition or a crash, or healing one
)

// roundRec is what one state round cost.
type roundRec struct {
	kind      roundKind
	msgs      int64
	wall      time.Duration
	mallocs   uint64
	virtual   time.Duration
	inPrefix  bool
	protoMsgs int64
}

// runProtocolSim drives the live overlay runtime on a virtual clock through a
// fixed script: two initial state rounds, then cycles of capability updates,
// two rounds and a batch of route-and-execute probes, with one cluster
// partition and a crash every few cycles. One operation is one delivered
// message. A window is one state round or one probe batch; only rounds count
// toward the rate.
func runProtocolSim(cfg runCfg, reps int) (_ *result, err error) {
	sz, tr := cfg.sz, cfg.tr
	res := newResult("protocol-sim", cfg)
	st := newStages(tr)
	var env *simEnv
	stop := func() {
		if env == nil {
			return
		}
		if serr := env.stop(); serr != nil && err == nil {
			err = serr
		}
		env = nil
	}
	defer stop()
	var setups []float64
	for i := 0; i < reps; i++ {
		stop()
		runtime.GC()
		t0 := time.Now()
		if env, err = buildSimEnv(sz.sim, st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	res.note = fmt.Sprintf("%d proxies, %d clusters", env.n(), env.numClusters())
	if st != nil {
		res.layer["cluster.cluster_ms"] = median(st.get("cluster.cluster").ns) / 1e6
		res.layer["hfc.build_ms"] = median(st.get("hfc.build").ns) / 1e6
		res.layer["overlay.new_start_ms"] = median(st.get("overlay.new_start").ns) / 1e6
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	nextProbe, err := env.generator(rng)
	if err != nil {
		return nil, err
	}
	nextStretch, err := env.generator(rand.New(rand.NewSource(stretchSeed)))
	if err != nil {
		return nil, err
	}

	m := &meter{}
	var rounds []roundRec
	var execUs, updateUs, crashMs []float64
	var partitionDropped int64
	digest := uint64(fnvOffset)
	inPrefix := true
	var probeNo int64

	window := func() bool {
		m.opening = inPrefix
		on := tr != nil && len(m.wins)%2 == 1
		tr.enable(on)
		return on
	}
	round := func(kind roundKind) {
		traced := window()
		proto0, total0 := env.delivered()
		v0 := env.virtualNow()
		id := tr.begin("overlay.round", -1, int64(len(rounds)))
		m.start()
		env.round()
		proto1, total1 := env.delivered()
		m.stop(total1-total0, traced)
		tr.end(id)
		w := m.wins[len(m.wins)-1]
		rounds = append(rounds, roundRec{kind, w.ops, w.wall, w.mallocs, env.virtualNow() - v0, inPrefix, proto1 - proto0})
	}
	probes := func() {
		traced := window()
		_, total0 := env.delivered()
		m.start()
		for i := 0; i < sz.simProbes; i++ {
			req := nextProbe()
			probeNo++
			t0 := time.Now()
			id := tr.begin("overlay.route_rpc", -1, probeNo)
			p, err := env.route(req)
			tr.end(id)
			m.sample(time.Since(t0))
			if err == nil {
				err = env.check(p, req)
			}
			if err != nil {
				res.fail("probe %d: %v", probeNo, err)
				continue
			}
			if inPrefix {
				digest = foldPath(digest^uint64(probeNo), p)
			}
			t0 = time.Now()
			id = tr.begin("overlay.execute", -1, probeNo)
			err = env.execute(p)
			tr.end(id)
			execUs = append(execUs, float64(time.Since(t0))/1e3)
			if err != nil {
				res.fail("probe %d: execute: %v", probeNo, err)
			}
		}
		_, total1 := env.delivered()
		m.stopAs(total1-total0, traced, true)
	}

	runtime.GC()
	spinBefore := spin(sz.spin)
	var scriptErr error
	var ratios []float64
	env.run(func() {
		round(roundCold)
		round(roundCold)
		// The stretch sample runs between windows, on the converged initial
		// deployment, so it is the same on every run.
		for i := 0; i < sz.simStretchSample; i++ {
			req := nextStretch()
			p, err := env.route(req)
			if err != nil {
				res.fail("stretch sample %d: %v", i, err)
				continue
			}
			ratio, _, err := env.stretch(req, p)
			if err != nil {
				res.fail("stretch sample %d: %v", i, err)
				continue
			}
			ratios = append(ratios, ratio)
		}
		for c := 0; c < simMinCycles || m.wall().Seconds() < cfg.seconds; c++ {
			inPrefix = c < simMinCycles
			t0 := time.Now()
			id := tr.begin("overlay.update_capability", -1, int64(c))
			for u := 0; u < sz.simUpdates; u++ {
				if scriptErr = env.update(rng, rng.Intn(env.n())); scriptErr != nil {
					return
				}
			}
			tr.endN(id, sz.simUpdates)
			updateUs = append(updateUs, float64(time.Since(t0))/1e3/float64(sz.simUpdates))
			round(roundSteady)
			round(roundSteady)
			probes()
			if c == simPartitionCycle {
				env.partitioned = rng.Intn(env.numClusters())
				round(roundFault)
				env.partitioned = -1
				partitionDropped = env.policyDropped()
				round(roundFault)
				round(roundFault)
			}
			if c%simCrashEvery == simCrashPhase {
				node := rng.Intn(env.n())
				t0 := time.Now()
				if scriptErr = env.crash(node); scriptErr != nil {
					return
				}
				round(roundFault)
				if scriptErr = env.recoverNode(node); scriptErr != nil {
					return
				}
				round(roundFault)
				round(roundFault)
				crashMs = append(crashMs, float64(time.Since(t0))/1e6)
			}
			if c == simMinCycles-1 {
				// The script's fixed opening ends here, with the same work
				// done on every run.
				res.e2e["retained_heap_mb"] = retainedHeap()
			}
		}
	})
	tr.enable(true)
	spinAfter := spin(sz.spin)
	if scriptErr != nil {
		return nil, scriptErr
	}
	ok, err := env.converged()
	if err != nil {
		return nil, err
	}
	if !ok {
		res.fail("the overlay did not converge")
	}

	res.e2e["path_stretch"] = mean(ratios)
	finishCommon(res, m, spinBefore, spinAfter, tr != nil, "overlay", "overlay.route_rpc")
	res.digest = digest
	var roundWall, probeWall time.Duration
	var probeOps int64
	for _, w := range m.wins {
		if w.skipRate {
			probeWall += w.wall
			probeOps += w.ops
		} else {
			roundWall += w.wall
		}
	}
	res.phases = []phase{
		{"state rounds", roundWall.Seconds(), m.ops() - probeOps},
		{"route+execute probes", probeWall.Seconds(), probeOps},
	}
	res.note += fmt.Sprintf(", %d rounds, %d probes", len(rounds), probeNo)
	if tr != nil {
		protocolLayers(res.layer, rounds, sz.sim.n)
		res.layer["overlay.execute_p50_us"] = median(execUs)
		res.layer["overlay.update_capability_us"] = median(updateUs)
		res.layer["overlay.crash_recover_ms"] = median(crashMs)
		res.layer["overlay.partition_dropped"] = float64(partitionDropped)

		id := tr.begin("vtime.event", -1, -1)
		d := vtimeEvents(sz.vtimeEvents, vtimeSeed)
		tr.endN(id, sz.vtimeEvents)
		res.layer["vtime.event_ns"] = float64(d) / float64(sz.vtimeEvents)
		id = tr.begin("vtime.handoff", -1, -1)
		d = vtimeHandoffs(sz.vtimeHandoffs)
		tr.endN(id, 2*sz.vtimeHandoffs)
		res.layer["vtime.handoff_ns"] = float64(d) / float64(2*sz.vtimeHandoffs)
	}
	return res, nil
}

// protocolLayers derives the per-round rows. The message counts and virtual
// times are taken over the fault-free rounds of the script's fixed opening
// cycles, which every run completes, so they repeat exactly for a seed.
func protocolLayers(out map[string]float64, rounds []roundRec, n int) {
	var coldWall time.Duration
	var coldMsgs, steadyMsgs, prefixProto int64
	var steadyMallocs uint64
	var steadyNs, prefixMsgs, prefixVirtual []float64
	for _, r := range rounds {
		if r.inPrefix {
			prefixProto += r.protoMsgs
		}
		switch r.kind {
		case roundCold:
			coldWall += r.wall
			coldMsgs += r.msgs
		case roundSteady:
			steadyNs = append(steadyNs, float64(r.wall)/float64(r.msgs))
			steadyMsgs += r.msgs
			steadyMallocs += r.mallocs
			if r.inPrefix {
				prefixMsgs = append(prefixMsgs, float64(r.msgs))
				prefixVirtual = append(prefixVirtual, float64(r.virtual)/1e6)
			}
		}
	}
	out["overlay.round_cold_ns_per_msg"] = float64(coldWall) / float64(coldMsgs)
	out["overlay.round_steady_ns_per_msg"] = median(steadyNs)
	out["overlay.allocs_per_msg"] = float64(steadyMallocs) / float64(steadyMsgs)
	out["overlay.round_msgs"] = mean(prefixMsgs)
	out["overlay.round_virtual_ms"] = mean(prefixVirtual)
	out["overlay.msgs_per_node"] = float64(prefixProto) / float64(n)
}
