package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// stageCost is what one set-up stage cost in each repetition of the set-up.
type stageCost struct {
	ns, bytes, allocs []float64 // per call
}

// stages runs set-up stages under spans and keeps what each cost. A nil
// *stages (an untraced run) just runs the stage.
type stages struct {
	tr   *tracer
	cost map[string]*stageCost
}

func newStages(tr *tracer) *stages {
	if tr == nil {
		return nil
	}
	return &stages{tr: tr, cost: make(map[string]*stageCost)}
}

func (s *stages) do(name string, fn func() error) error { return s.doN(name, 1, fn) }

// doN runs a stage that makes `calls` calls of the layer function.
func (s *stages) doN(name string, calls int, fn func() error) error {
	if s == nil {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := s.tr.begin(name, -1, -1)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.tr.endN(id, calls)
	runtime.ReadMemStats(&m1)
	c := s.cost[name]
	if c == nil {
		c = &stageCost{}
		s.cost[name] = c
	}
	n := float64(calls)
	c.ns = append(c.ns, float64(d)/n)
	c.bytes = append(c.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	c.allocs = append(c.allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	return err
}

func (s *stages) get(name string) *stageCost {
	if c := s.cost[name]; c != nil {
		return c
	}
	return &stageCost{}
}

// bootstrapLayers turns the stage costs of the resolve-* set-up into the
// bootstrap rows; times are medians over the set-up's (staged,
// core.Bootstrap) pairs. The four stages' sum is compared with the whole
// ("per-layer rows sum to its total") pair by pair, so that a slow spell of
// the box, which outlasts a pair, cancels; the row is the distance of the
// pairs' median ratio from 1. Single pairs scatter by a tenth and more, so
// the run is marked when that distance exceeds tol by more than three
// standard errors of the median (taken from the pairs' quartiles, as for a
// normal sample). It is marked, not failed: the ratio is a reading of the
// clock, and on the calibration box one traced run in two read 1.10–1.16
// where the sets before had read 0.98–1.07; what fails a run is a wrong
// result, which the comparison of the staged topology with core.Bootstrap's
// catches.
func bootstrapLayers(s *stages, res *result, tol float64) {
	out := res.layer
	ms := func(name string) float64 { return median(s.get(name).ns) / 1e6 }
	out["topology.generate_ms"] = ms("topology.generate")
	out["netsim.new_ms"] = ms("netsim.new")
	out["netsim.new_mb"] = median(s.get("netsim.new").bytes) / (1 << 20)
	out["graph.dijkstra_csr_ns"] = median(s.get("graph.dijkstra_csr").ns)
	out["coords.buildmap_ms"] = ms("coords.buildmap")
	out["coords.buildmap_allocs"] = median(s.get("coords.buildmap").allocs)
	out["state.distribute_ms"] = ms("state.distribute")
	out["state.distribute_mb"] = median(s.get("state.distribute").bytes) / (1 << 20)
	out["serve.newengine_ms"] = ms("serve.newengine")

	whole := s.get("core.bootstrap").ns
	ratios := make([]float64, len(whole))
	for _, name := range []string{"coords.buildmap", "cluster.cluster", "hfc.build", "state.distribute"} {
		for i, ns := range s.get(name).ns {
			ratios[i] += ns / whole[i]
		}
	}
	ratio := median(ratios)
	q1, q3 := quartiles(ratios)
	se := 0.93 * (q3 - q1) / math.Sqrt(float64(len(ratios)))
	gap := math.Abs(ratio - 1)
	out["core.stage_sum_gap"] = gap
	res.note += fmt.Sprintf(", stage sum %.3f ± %.3f of core.Bootstrap over %d pairs", ratio, se, len(ratios))
	if gap > tol+3*se {
		res.marks = append(res.marks, fmt.Sprintf("STAGE SUM: the bootstrap stages sum to %.3f ± %.3f of core.Bootstrap, outside %g–%g", ratio, se, 1-tol, 1+tol))
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// replayLayers derives the resolve rows from the spans of the decomposed
// replay: the front-matter costs per call, the distribution of
// HierarchicalRouter.Route, the share of it spent in child solves, and what
// the engine adds around the same calls on a miss.
func replayLayers(tr *tracer, out map[string]float64) {
	out["svc.validate_ns"] = median(tr.perCall("svc.validate"))
	out["svc.canonical_ns"] = median(tr.perCall("svc.canonical"))
	out["routing.cachekey_ns"] = median(tr.perCall("routing.cachekey"))
	out["routing.cache_get_hit_ns"] = median(tr.perCall("routing.cache_get_hit"))
	out["routing.cache_put_ns"] = median(tr.perCall("routing.cache_put"))
	front := out["svc.validate_ns"] + out["svc.canonical_ns"] + out["routing.cachekey_ns"] +
		median(tr.perCall("routing.cache_get_miss")) + out["routing.cache_put_ns"]

	children := tr.childTime()
	missByOp := make(map[int64]float64)
	var route, self, share, kids, solve, overhead []float64
	childCount := make(map[int32]int)
	for i := range tr.spans {
		s := &tr.spans[i]
		switch {
		case s.Name == "serve.resolve_miss" && s.Op >= replayOpBase:
			missByOp[s.Op] = float64(s.End - s.Start)
		case s.Name == "routing.solvechild":
			solve = append(solve, float64(s.End-s.Start)/1e3)
			childCount[s.Parent]++
		}
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name != "routing.route" {
			continue
		}
		d := float64(s.End - s.Start)
		in := float64(children[int32(i)])
		route = append(route, d/1e3)
		self = append(self, (d-in)/1e3)
		share = append(share, in/d)
		kids = append(kids, float64(childCount[int32(i)]))
		if miss, ok := missByOp[s.Op]; ok {
			overhead = append(overhead, (miss-d-front)/1e3)
		}
	}
	rs := sorted(route)
	out["routing.route_p50_us"] = percentile(rs, 0.50)
	out["routing.route_p99_us"] = percentile(rs, 0.99)
	out["routing.route_self_us"] = median(self)
	out["routing.solvechild_share"] = mean(share)
	out["routing.solvechild_p50_us"] = median(solve)
	out["routing.children_per_route"] = mean(kids)
	out["serve.overhead_us"] = median(overhead)
}
