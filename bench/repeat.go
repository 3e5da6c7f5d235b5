package main

import "fmt"

// runRepeat is the calibration mode: the whole suite N times with tracing
// off and one seed, so that what differs between repetitions is the box and
// nothing else; then for every end-to-end metric of every workload the
// minimum, median and maximum, the range (maximum − minimum) and the distance
// between the first and third quartile, both as shares of the median. The
// range is judged against the metric's bound; the quartile distance is what
// the driver judges, over ten seeds. What the runs read off the clock follows
// each workload's end-to-end metrics, with no bound and no verdict. The
// digest and path_stretch repeat exactly, so two invocations can be compared
// line by line.
func (o *options) runRepeat() (ok bool, err error) {
	ok = true
	values := make(map[string]map[string][]float64) // workload → metric → one value per repetition
	for _, name := range workloadNames {
		values[name] = make(map[string][]float64)
	}
	var clock []clockRow
	for i := 0; i < o.repeat; i++ {
		for _, name := range workloadNames {
			res, err := o.run(name, o.cfg(false))
			if err != nil {
				return false, err
			}
			ok = ok && res.failed == 0
			for _, d := range endToEnd {
				values[name][d.name] = append(values[name][d.name], res.e2e[d.name])
			}
			clock = res.clock()
			for _, c := range clock {
				values[name][c.name] = append(values[name][c.name], c.value)
			}
		}
	}
	o.out.printf("\ncalibration over %d repetitions, seed %d, %g s each\n", o.repeat, o.seed, o.seconds)
	o.out.printf("%-14s %-17s %12s %12s %12s %8s %8s %7s\n", "workload", "metric", "min", "median", "max", "range", "q3-q1", "bound")
	// row prints one metric's spread and returns its range.
	row := func(workload, metric, bound string) float64 {
		v := values[workload][metric]
		s := sorted(v)
		med := median(v)
		q1, q3 := quartiles(v)
		spread, iqr := 0.0, 0.0
		if med != 0 {
			spread, iqr = (s[len(s)-1]-s[0])/med, (q3-q1)/med
		}
		o.out.printf("%-14s %-17s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %7s",
			workload, metric, s[0], med, s[len(s)-1], 100*spread, 100*iqr, bound)
		return spread
	}
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			// The set-up time's spread is reported, not judged: the driver
			// applies its bound to the median alone.
			if row(name, d.name, fmt.Sprintf("%.1f%%", 100*d.bound)) > d.bound && d.name != "setup_s" {
				o.out.printf("  BREACH")
				ok = false
			}
			o.out.printf("\n")
		}
		for _, c := range clock {
			row(name, c.name, "clock")
			o.out.printf("\n")
		}
	}
	return ok, nil
}
