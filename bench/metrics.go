package main

import "fmt"

// metricDef declares one metric the benchmark emits. The lists below are
// what BENCHMARK.json declares; bench_test.go holds the two together.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	bound float64
	lower bool // lower is better
}

// workloadNames are final; later issues refer to results by them.
var workloadNames = []string{"resolve-cold", "resolve-hot", "resolve-churn", "protocol-sim"}

// endToEnd is measured with tracing off, on every workload. But for setup_s,
// which the driver's contract requires, none of them is read off the clock:
// on the box the benchmark is judged on, throughput and latency of unchanged
// code move by more than a quarter between two runs (README.md, "What became
// of the timing metrics"), so by the issue's rule they are per-layer rows,
// serve.ops_per_s and its kin.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25, true},
	{"allocs_per_op", "count", 0.02, true},
	{"bytes_per_op", "B", 0.02, true},
	{"retained_heap_mb", "MiB", 0.10, true},
	{"path_stretch", "ratio", 0.005, true},
}

// perLayer is measured by a traced run. Every traced run emits every row:
// the rows of layers the selected workload does not exercise come from the
// opening of a workload that does (see runOne).
var perLayer = []metricDef{
	// bootstrap of the Table 1 environment (resolve-* set-up)
	{name: "topology.generate_ms", unit: "ms", lower: true},
	{name: "netsim.new_ms", unit: "ms", lower: true},
	{name: "netsim.new_mb", unit: "MiB", lower: true},
	{name: "graph.dijkstra_csr_ns", unit: "ns", lower: true},
	{name: "coords.buildmap_ms", unit: "ms", lower: true},
	{name: "coords.buildmap_allocs", unit: "count", lower: true},
	{name: "state.distribute_ms", unit: "ms", lower: true},
	{name: "state.distribute_mb", unit: "MiB", lower: true},
	{name: "serve.newengine_ms", unit: "ms", lower: true},
	{name: "core.stage_sum_gap", unit: "ratio", lower: true},
	// resolve, from the decomposed replay
	{name: "svc.validate_ns", unit: "ns", lower: true},
	{name: "svc.canonical_ns", unit: "ns", lower: true},
	{name: "routing.cachekey_ns", unit: "ns", lower: true},
	{name: "routing.cache_get_hit_ns", unit: "ns", lower: true},
	{name: "routing.cache_put_ns", unit: "ns", lower: true},
	{name: "routing.route_p50_us", unit: "us", lower: true},
	{name: "routing.route_p99_us", unit: "us", lower: true},
	{name: "routing.solvechild_share", unit: "ratio", lower: true},
	{name: "routing.solvechild_p50_us", unit: "us", lower: true},
	{name: "routing.children_per_route", unit: "count", lower: true},
	{name: "routing.route_self_us", unit: "us", lower: true},
	{name: "routing.findpath_flat_us", unit: "us", lower: true},
	{name: "serve.overhead_us", unit: "us", lower: true},
	// resolve, from the traced windows of the streams
	{name: "serve.resolve_hit_ns", unit: "ns", lower: true},
	{name: "serve.resolve_miss_us", unit: "us", lower: true},
	{name: "serve.ops_per_s", unit: "1/s"},
	{name: "serve.resolve_p50_us", unit: "us", lower: true},
	{name: "serve.resolve_p99_us", unit: "us", lower: true},
	{name: "serve.cpu_us_per_op", unit: "us", lower: true},
	{name: "serve.hit_ratio", unit: "ratio"},
	{name: "serve.resolutions", unit: "count", lower: true},
	{name: "serve.deduped", unit: "count"},
	{name: "serve.batch_ops_per_s", unit: "1/s"},
	{name: "serve.batch_ns_per_req", unit: "ns", lower: true},
	{name: "serve.batch_unique_ratio", unit: "ratio", lower: true},
	{name: "serve.update_ms", unit: "ms", lower: true},
	{name: "serve.misses_after_update", unit: "count", lower: true},
	// protocol-sim
	{name: "cluster.cluster_ms", unit: "ms", lower: true},
	{name: "hfc.build_ms", unit: "ms", lower: true},
	{name: "overlay.new_start_ms", unit: "ms", lower: true},
	{name: "overlay.round_cold_ns_per_msg", unit: "ns", lower: true},
	{name: "overlay.round_steady_ns_per_msg", unit: "ns", lower: true},
	{name: "overlay.allocs_per_msg", unit: "count", lower: true},
	{name: "overlay.round_msgs", unit: "count", lower: true},
	{name: "overlay.round_virtual_ms", unit: "virt_ms", lower: true},
	{name: "overlay.msgs_per_node", unit: "count", lower: true},
	{name: "overlay.ops_per_s", unit: "1/s"},
	{name: "overlay.route_rpc_p50_us", unit: "us", lower: true},
	{name: "overlay.route_rpc_p99_us", unit: "us", lower: true},
	{name: "overlay.cpu_us_per_op", unit: "us", lower: true},
	{name: "overlay.execute_p50_us", unit: "us", lower: true},
	{name: "overlay.update_capability_us", unit: "us", lower: true},
	{name: "overlay.crash_recover_ms", unit: "ms", lower: true},
	{name: "overlay.partition_dropped", unit: "count"},
	{name: "vtime.event_ns", unit: "ns", lower: true},
	{name: "vtime.handoff_ns", unit: "ns", lower: true},
	// harness
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "noise.spin_ns", unit: "ns", lower: true},
}

// result is what one run of one workload measured.
type result struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int64
	failures          []string // the first few, for the report

	// What the clock measured over the timed phase: per-layer rows, under the
	// layer that does the workload's work, printed by every run.
	rate     float64 // operations per second, median over windows
	p50, p99 float64 // operation latency, µs
	samples  int     // latency samples behind them
	cpuPerOp float64 // process CPU per operation, µs

	digest    uint64   // FNV digest of the paths of the deterministic prefix
	disturbed bool     // the noise probe shifted by more than 10 %
	marks     []string // readings of the clock that look wrong; reported, not failed
	phases    []phase
	note      string // environment summary
}

// clockRow is one reading of the clock over the timed phase.
type clockRow struct {
	name, unit string
	value      float64
}

// clock lists what the run read off the clock, under the names the issue
// gave them as end-to-end metrics. Every run prints them; a traced run files
// them as per-layer rows (finishCommon); no bound applies to them.
func (r *result) clock() []clockRow {
	return []clockRow{
		{"ops_per_s", "1/s", r.rate},
		{"op_p50_us", "us", r.p50},
		{"op_p99_us", "us", r.p99},
		{"cpu_us_per_op", "us", r.cpuPerOp},
	}
}

type phase struct {
	name string
	wall float64 // s
	ops  int64
}

func newResult(workload string, cfg runCfg) *result {
	return &result{
		workload: workload, seed: cfg.seed, seconds: cfg.seconds, traced: cfg.tr != nil,
		e2e: make(map[string]float64), layer: make(map[string]float64),
	}
}

const maxReportedFailures = 5

// fail counts one failed operation or correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxReportedFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}
