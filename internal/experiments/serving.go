package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hfc/internal/env"
	"hfc/internal/par"
	"hfc/internal/serve"
	"hfc/internal/svc"
)

// ServeRow is one worker-count setting of the serving-throughput
// experiment: the same request stream resolved through the concurrent
// serving engine at a given fan-out.
type ServeRow struct {
	// Workers is the resolution fan-out (1 = serial baseline).
	Workers int
	// Requests is the number of resolutions performed (cold + warm pass).
	Requests int
	// OpsPerSec is the end-to-end resolution throughput.
	OpsPerSec float64
	// Speedup is OpsPerSec relative to the first row of the sweep (pass
	// workers=1 first for a serial baseline).
	Speedup float64
	// HitRate is the route-cache hit fraction over the run.
	HitRate float64
	// Deduped counts resolutions answered by joining an in-flight
	// computation.
	Deduped int64
	// BatchOpsPerSec is the throughput of the same stream submitted as
	// ResolveBatch calls (one per pass) at the row's worker count, on a
	// second fresh engine: duplicate requests in a pass resolve once and
	// share the result.
	BatchOpsPerSec float64
	// BatchSpeedup is BatchOpsPerSec over the row's OpsPerSec.
	BatchSpeedup float64
}

// RunServe measures the serving engine's request throughput at several
// worker counts. Each run resolves the same stream — a cold pass over
// distinct requests followed by repeat passes that exercise the cache — on
// a fresh engine, so rows are comparable. Routing results are identical
// across worker counts; only the timing differs.
func RunServe(spec env.Spec, requests int, workerCounts []int) ([]ServeRow, error) {
	if requests < 1 {
		return nil, errors.New("experiments: need at least 1 request")
	}
	if len(workerCounts) == 0 {
		return nil, errors.New("experiments: empty worker sweep")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: serve: %w", err)
	}
	reqs := make([]svc.Request, requests)
	for i := range reqs {
		if reqs[i], err = e.NextRequest(); err != nil {
			return nil, err
		}
	}
	// Three passes over the stream: one cold, two warm (cache + dedup).
	stream := make([]svc.Request, 0, 3*requests)
	for pass := 0; pass < 3; pass++ {
		stream = append(stream, reqs...)
	}

	// A fresh engine over the one environment: cache and counters start cold.
	fw := e.Framework
	newEngine := func() (*serve.Engine, error) {
		return serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{})
	}

	rows := make([]ServeRow, 0, len(workerCounts))
	var serialOps float64
	for _, w := range workerCounts {
		eng, err := newEngine()
		if err != nil {
			return nil, fmt.Errorf("experiments: serve: %w", err)
		}
		errs := make([]error, len(stream))
		//hfcvet:ignore detrand wall-clock throughput timing; route results stay seed-deterministic
		start := time.Now()
		par.ForN(len(stream), w, func(i int) {
			_, errs[i] = eng.Resolve(stream[i])
		})
		elapsed := time.Since(start)
		for i, rerr := range errs {
			if rerr != nil {
				return nil, fmt.Errorf("experiments: serve: request %d: %w", i, rerr)
			}
		}
		st := eng.Stats()
		lookups := st.Cache.Hits + st.Cache.Misses
		row := ServeRow{
			Workers:   w,
			Requests:  len(stream),
			OpsPerSec: float64(len(stream)) / elapsed.Seconds(),
			Deduped:   st.Deduped,
		}
		if lookups > 0 {
			row.HitRate = float64(st.Cache.Hits) / float64(lookups)
		}
		if serialOps == 0 {
			serialOps = row.OpsPerSec
		}
		row.Speedup = row.OpsPerSec / serialOps

		// The batched counterpart: the identical 3-pass stream submitted as
		// one ResolveBatch call, again on a fresh engine so caches start
		// cold. The whole stream goes in one batch because the stream's
		// duplication is across passes — batching amortizes front matter
		// only for duplicates inside a single call, which is exactly what a
		// request-coalescing server hands it.
		beng, err := newEngine()
		if err != nil {
			return nil, fmt.Errorf("experiments: serve: %w", err)
		}
		//hfcvet:ignore detrand wall-clock throughput timing; route results stay seed-deterministic
		bstart := time.Now()
		_, berrs := beng.ResolveBatch(stream, w)
		for i, rerr := range berrs {
			if rerr != nil {
				return nil, fmt.Errorf("experiments: serve batch: request %d: %w", i, rerr)
			}
		}
		row.BatchOpsPerSec = float64(len(stream)) / time.Since(bstart).Seconds()
		row.BatchSpeedup = row.BatchOpsPerSec / row.OpsPerSec
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatServe renders the serving-throughput sweep.
func FormatServe(rows []ServeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving-engine throughput (sharded cache + provider indexes + dedup)\n")
	fmt.Fprintf(&b, "%8s  %9s  %10s  %8s  %8s  %8s  %12s  %8s\n",
		"workers", "requests", "ops/sec", "speedup", "hit-rate", "deduped", "batch-ops/s", "batch-x")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d  %9d  %10.0f  %7.2fx  %7.1f%%  %8d  %12.0f  %7.2fx\n",
			r.Workers, r.Requests, r.OpsPerSec, r.Speedup, 100*r.HitRate, r.Deduped,
			r.BatchOpsPerSec, r.BatchSpeedup)
	}
	return b.String()
}
