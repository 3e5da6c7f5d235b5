package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// window is one measured slice of a timed phase. Work between two windows
// (generating inputs, validating paths) is outside every metric.
type window struct {
	ops       int64
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	traced    bool
	skipRate  bool // the window's operations are not the workload's unit of throughput
	opening   bool // the window lies in the stream's fixed opening
}

// meter measures a timed phase as a sequence of windows and keeps the
// operation latencies sampled inside them. Throughput is reported as the
// median over windows, so that a burst of interference on a shared box moves
// a few windows and not the result.
type meter struct {
	wins []window
	lat  []float64 // µs

	// opening is set by the workload while its stream's fixed opening runs:
	// the part every run completes, whatever -seconds says.
	opening bool

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop(ops int64, traced bool) { m.stopAs(ops, traced, false) }

func (m *meter) stopAs(ops int64, traced, skipRate bool) {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.wins = append(m.wins, window{
		ops: ops, wall: wall, cpu: cpu,
		mallocs: ms.Mallocs - m.ms0.Mallocs, bytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		traced: traced, skipRate: skipRate, opening: m.opening,
	})
}

// elapsed is the wall time of the window now open.
func (m *meter) elapsed() time.Duration { return time.Since(m.t0) }

// sample records one operation latency.
func (m *meter) sample(d time.Duration) { m.lat = append(m.lat, float64(d)/1e3) }

// wall sums the windows' wall time.
func (m *meter) wall() time.Duration {
	var d time.Duration
	for _, w := range m.wins {
		d += w.wall
	}
	return d
}

func (m *meter) ops() int64 {
	var n int64
	for _, w := range m.wins {
		n += w.ops
	}
	return n
}

// rate is the median over windows of operations per second; traced selects
// which windows count.
func (m *meter) rate(traced bool) float64 {
	var r []float64
	for _, w := range m.wins {
		if w.traced == traced && !w.skipRate && w.ops > 0 && w.wall > 0 {
			r = append(r, float64(w.ops)/w.wall.Seconds())
		}
	}
	return median(r)
}

// cpuPerOp is the median over windows of process CPU time (user and system,
// garbage collection included) per operation, in µs.
func (m *meter) cpuPerOp() float64 {
	var c []float64
	for _, w := range m.wins {
		if !w.skipRate && w.ops > 0 {
			c = append(c, float64(w.cpu)/1e3/float64(w.ops))
		}
	}
	return median(c)
}

// allocsPerOp divides the allocation count and the allocated bytes of the
// windows of the stream's fixed opening by their operations: the same work on
// every run. Over the whole timed phase they would depend on how far the run
// got, which is how fast the box was: the route cache's map doubles at
// whichever request the run reaches, and protocol-sim's first cycles, with
// the partition and the crash, allocate more per message than its later ones
// (five runs of one seed read 316 to 326 B per message).
func (m *meter) allocsPerOp() (allocs, bytes float64) {
	var mallocs, b uint64
	var n int64
	for _, w := range m.wins {
		if w.opening {
			mallocs += w.mallocs
			b += w.bytes
			n += w.ops
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(mallocs) / float64(n), float64(b) / float64(n)
}

// latency reports the median and the 99th percentile of all samples.
func (m *meter) latency() (p50, p99 float64, samples int) {
	all := sorted(m.lat)
	return percentile(all, 0.50), percentile(all, 0.99), len(all)
}

// percentile reads the p-quantile of sorted values (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is how the spread of repeated runs is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// retainedHeap forces a collection and returns what it found live, in MiB.
// It is read once per run, between two windows, when the workload's
// deterministic prefix has been served. The issue asked for the peak of the
// heap in use over the run. A peak depends on where in the workload's rhythm
// a collection happens to start: on protocol-sim, whose messages in flight
// are a quarter of its heap, ten runs read 413 to 592 MiB. And in a run
// bounded by time the heap at the end depends on how far the run got: the
// route cache of resolve-cold grows with every request served, the overlay's
// heap with the cycles of the script.
func retainedHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// The noise probe is a serial multiply-add chain of fixed length, run in
// slices: about 200 ms in all on the box the benchmark was calibrated on.
const (
	spinSlices     = 4
	spinIterations = 50_000_000 // per slice
)

var spinSink uint64

// spin times the fastest of the probe's slices. It is run before and after a
// workload; a shift between the two readings means something else had the
// processor for longer than a slice.
func spin(iterations int) time.Duration {
	var best time.Duration
	for s := 0; s < spinSlices; s++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < iterations; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink += x
		if d := time.Since(t0); s == 0 || d < best {
			best = d
		}
	}
	return best
}

// timeIt measures one call.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
