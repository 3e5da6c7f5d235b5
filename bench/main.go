// Command bench is the repository's end-to-end benchmark: four workloads
// over the paper's pipeline (coordinates → clustering → borders → §4 state
// distribution → §5 resolution, and the live overlay runtime), each a closed
// loop with one client, measured with tracing off; a traced run of the same
// workloads records spans around the calls into each layer and derives the
// per-layer rows. BENCHMARK.json at the repository root declares it; README.md
// beside this file explains every workload and metric.
//
//	go run ./bench                                   every workload, tracing off
//	go run ./bench -trace spans.json                 then once more traced: per-layer rows and the span file
//	go run ./bench -workload resolve-cold -trace 1   one workload, as the driver runs it
//	go run ./bench -repeat 5                         calibration: spread of every metric against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// sizes fixes every count of the benchmark; -seconds alone sets how long
// the timed phases run. full is what BENCHMARK.json's numbers mean; toy is
// the same code at a size a unit test can afford.
type sizes struct {
	resolve resolveSpec
	sim     simSpec
	// how often set-up is repeated; setup_s is the median
	resolveReps, simReps int
	// How many (staged, core.Bootstrap) pairs a traced set-up runs, and how
	// far from 1 the stages' sum may lie as a share of the whole. At full size
	// single pairs read 0.9 to 1.1 on the calibration box when it is calm and
	// 0.6 to 1.4 when it is not, the median of seven 0.92 to 1.09; at toy size
	// a stage is a few milliseconds and only a gross gap can be told from
	// jitter.
	bootstrapPairs int
	stageSumTol    float64
	window         time.Duration // of the resolve-* streams

	pool, stream, batchBlock int     // resolve-hot / resolve-churn
	zipfS                    float64 // of the pool ranks
	updateEvery              int     // resolve-churn: requests per update
	missesWindow             int     // requests after an update over which misses are counted

	// The deterministic prefix of each stream: every run completes it
	// whatever -seconds says, and the digest and the exact per-seed counts
	// are taken over it.
	coldPrefix, hotPrefix, churnPrefixUpdates int
	coldBatch                                 int // requests generated ahead of a cold window

	stretchSample, simStretchSample, replaySample int

	simUpdates, simProbes            int // protocol-sim script, per cycle
	vtimeEvents, vtimeHandoffs, spin int
}

var full = sizes{
	// Table 1, row 4.
	resolve:     resolveSpec{physical: 1200, landmarks: 10, proxies: 1000, catalog: 40, minServices: 4, maxServices: 10, minLen: 4, maxLen: 10},
	sim:         simSpec{n: 4000, catalog: 12, minServices: 2, maxServices: 5, minLen: 2, maxLen: 4},
	resolveReps: 5, simReps: 9, bootstrapPairs: 7, stageSumTol: 0.05,
	window: time.Second,
	pool:   4096, stream: 1 << 20, batchBlock: 256, zipfS: 1.3,
	updateEvery: 20_000, missesWindow: 10_000,
	coldPrefix: 8192, hotPrefix: 1 << 18, churnPrefixUpdates: 10, coldBatch: 8192,
	stretchSample: 200, simStretchSample: 50, replaySample: 2000,
	simUpdates: 25, simProbes: 250,
	vtimeEvents: 1_000_000, vtimeHandoffs: 200_000, spin: spinIterations,
}

var toy = sizes{
	resolve:     resolveSpec{physical: 300, landmarks: 8, proxies: 60, catalog: 20, minServices: 3, maxServices: 6, minLen: 2, maxLen: 5},
	sim:         simSpec{n: 256, catalog: 12, minServices: 2, maxServices: 5, minLen: 2, maxLen: 4},
	resolveReps: 1, simReps: 1, bootstrapPairs: 3, stageSumTol: 0.5,
	window: 10 * time.Millisecond,
	pool:   64, stream: 4096, batchBlock: 32, zipfS: 1.3,
	updateEvery: 512, missesWindow: 128,
	coldPrefix: 64, hotPrefix: 1024, churnPrefixUpdates: 2, coldBatch: 64,
	stretchSample: 8, simStretchSample: 4, replaySample: 32,
	simUpdates: 5, simProbes: 6,
	vtimeEvents: 2000, vtimeHandoffs: 500, spin: 1_000_000,
}

// envSeed builds the environment every run measures. The workload seed
// drives the request streams, the update and crash victims and the probes,
// not the environment: over seeds 1–6 the Table 1 environment's cluster
// structure moves resolve-cold's throughput by ±20 %, which would drown any
// bound.
const envSeed = 1

var runners = map[string]func(runCfg, int) (*result, error){
	"resolve-cold":  runResolveCold,
	"resolve-hot":   runResolveHot,
	"resolve-churn": runResolveChurn,
	"protocol-sim":  runProtocolSim,
}

// runWorkload runs one workload once. Set-up is repeated only where setup_s
// is reported, which a traced run does not.
func runWorkload(name string, cfg runCfg) (*result, error) {
	reps := cfg.sz.resolveReps
	if name == "protocol-sim" {
		reps = cfg.sz.simReps
	}
	if cfg.tr != nil {
		reps = 1
	}
	res, err := runners[name](cfg, reps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cfg.tr != nil {
		if err := cfg.tr.check(); err != nil {
			res.fail("trace: %v", err)
		}
	}
	return res, nil
}

// traceRun is one workload's spans in the span file.
type traceRun struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     string
	repeat    int
	sz        *sizes
	out       *printer
	results   []*result
	traceRuns []traceRun
}

// printer writes the report and remembers the first write error, which main
// turns into a failed run: a truncated report must not pass for a result.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil && p.err == nil {
		p.err = err
	}
}

// run runs one workload once with the process's seed and sizes, prints its
// report and keeps its result and, when traced, its spans.
func (o *options) run(name string, cfg runCfg) (*result, error) {
	cfg.seed, cfg.sz = o.seed, o.sz
	res, err := runWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	o.results = append(o.results, res)
	if cfg.tr != nil {
		o.traceRuns = append(o.traceRuns, traceRun{name, cfg.tr.spans})
	}
	report(o.out, res)
	return res, nil
}

// cfg is a run of -seconds, traced or not.
func (o *options) cfg(traced bool) runCfg {
	cfg := runCfg{seconds: o.seconds}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

// runOne is the driver's entry: one workload, tracing off or on, one JSON
// object as the last line. The driver's contract puts "with --trace 1 every
// per_layer metric" in that object whichever workload is named, so a traced
// run then runs the other workloads' fixed openings (-seconds 0: what every
// run completes) for the rows only they produce. A row the selected workload
// produces is its own; the others come from the first workload, in
// workloadNames' order, that has them. The rows of the Table 1 environment
// (staged bootstrap, decomposed replay) are the same measurement on all three
// resolve-* workloads and are taken once.
func (o *options) runOne() (ok bool, err error) {
	traced := o.traced()
	res, err := o.run(o.workload, o.cfg(traced))
	if err != nil {
		return false, err
	}
	attempted, failed := res.attempted, res.failed
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layer
		for _, name := range workloadNames {
			if name == o.workload {
				continue
			}
			_, envRowsKnown := values["core.stage_sum_gap"]
			opening, err := o.run(name, runCfg{tr: newTracer(), envRowsKnown: envRowsKnown})
			if err != nil {
				return false, err
			}
			attempted, failed = attempted+opening.attempted, failed+opening.failed
			for k, v := range opening.layer {
				if _, have := values[k]; !have {
					values[k] = v
				}
			}
		}
		if err := o.writeTrace(); err != nil {
			return false, err
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]metric)}
	for _, d := range defs {
		v, have := values[d.name]
		if !have {
			return false, fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	o.out.printf("%s\n", line)
	return failed == 0, nil
}

// runAll runs every workload with tracing off and, with -trace, once more
// traced.
func (o *options) runAll() (ok bool, err error) {
	ok = true
	passes := []bool{false}
	if o.traced() {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for _, name := range workloadNames {
			res, err := o.run(name, o.cfg(traced))
			if err != nil {
				return false, err
			}
			ok = ok && res.failed == 0
		}
	}
	return ok, o.writeTrace()
}

// traced reports whether -trace asks for a traced run.
func (o *options) traced() bool { return o.trace != "" && o.trace != "0" }

func (o *options) writeTrace() error {
	if len(o.traceRuns) == 0 {
		return nil
	}
	file := o.trace
	if file == "1" {
		// The driver's spelling of "on": keep the spans beside the build.
		file = fmt.Sprintf(".bench_build/hfc-trace-%s-%d.json", o.workload, o.seed)
	}
	if err := writeTrace(file, stamp(), o.traceRuns); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	o.out.printf("spans written to %s\n", file)
	return nil
}

// report prints one run's metrics by name, with units.
func report(w *printer, res *result) {
	mode := "off"
	if res.traced {
		mode = "on"
	}
	w.printf("\nworkload %s  seed=%d  seconds=%g  trace=%s  (%s)\n", res.workload, res.seed, res.seconds, mode, res.note)
	for _, p := range res.phases {
		w.printf("  phase %-22s %8.2f s  %12d ops\n", p.name, p.wall, p.ops)
	}
	if !res.traced {
		for _, d := range endToEnd {
			if v, have := res.e2e[d.name]; have {
				w.printf("  %-34s %16.6g %s\n", d.name, v, d.unit)
			}
		}
		w.printf("  read off the clock (per-layer rows, no bound; %d latency samples):\n", res.samples)
		for _, c := range res.clock() {
			w.printf("  %-34s %16.6g %s\n", c.name, c.value, c.unit)
		}
	} else {
		for _, d := range perLayer {
			if v, have := res.layer[d.name]; have {
				w.printf("  %-34s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	w.printf("  %-34s %16.6g ratio  (%d failed of %d attempted)\n", "fail_ratio", ratio, res.failed, res.attempted)
	w.printf("  %-34s %016x\n", "digest", res.digest)
	for _, f := range res.failures {
		w.printf("  FAILED: %s\n", f)
	}
	for _, m := range res.marks {
		w.printf("  %s\n", m)
	}
	if res.disturbed {
		w.printf("  DISTURBED: the noise probe shifted by more than 10 %% across this run\n")
	}
}

// stamp describes the box and the tree.
func stamp() map[string]string {
	s := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s["commit"] = strings.TrimSpace(string(b))
	}
	return s
}

func main() {
	o := &options{sz: &full, out: &printer{w: os.Stdout}}
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") and print one JSON object last; default: all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: request streams, update and crash victims, probes")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of each workload's timed phase")
	flag.StringVar(&o.trace, "trace", "", "span file of a traced run; 0 is off, 1 is on with a default file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the suite N times with the one seed and print each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if _, known := runners[o.workload]; o.workload != "" && !known {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	st := stamp()
	o.out.printf("# hfc bench  %s  GOMAXPROCS=%s  nproc=%s  cpu=%q  commit=%s\n", st["go"], st["gomaxprocs"], st["nproc"], st["cpu"], st["commit"])
	var ok bool
	var err error
	switch {
	case o.repeat > 0:
		ok, err = o.runRepeat()
	case o.workload != "":
		ok, err = o.runOne()
	default:
		ok, err = o.runAll()
	}
	if err == nil {
		err = o.out.err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
