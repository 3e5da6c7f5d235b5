package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"hfc/internal/chaos"
	"hfc/internal/env"
	"hfc/internal/hfc"
	"hfc/internal/overlay"
	"hfc/internal/svc"
)

// ChaosDrillRow is one trial of the partition drill: one cluster is cut off
// from the rest of the overlay, requests keep arriving, the cut heals, and
// the system must reconverge to exactly the fault-free border state.
type ChaosDrillRow struct {
	// Cluster is the minority cluster partitioned this trial; Partitioned
	// is its node count.
	Cluster, Partitioned int
	// FreshDuringCut / DegradedDuringCut / FailedDuringCut classify the
	// request outcomes while the partition held: resolved normally, served
	// stale — the route cache's last-known-good entry — or failed outright.
	FreshDuringCut, DegradedDuringCut, FailedDuringCut int
	// DegradedValid counts degraded results that still validate against
	// the (unchanged) deployment — the "stale, never wrong" promise; it
	// must equal DegradedDuringCut.
	DegradedValid int
	// DroppedByPolicy is how many overlay messages the injected partition
	// swallowed.
	DroppedByPolicy int
	// ReconvergeRounds is how many §4 rounds after the heal until the live
	// tables verify; DrainRounds is how many further rounds until the
	// accrual detector released every quarantined node.
	ReconvergeRounds, DrainRounds int
	// BordersMatchRebuild reports whether the incremental border state
	// after the drain is byte-equal to a from-scratch rebuild.
	BordersMatchRebuild bool
	// PostHealSuccess is the fraction of the request set answered fresh
	// and valid after the heal.
	PostHealSuccess float64
	Requests        int
}

// chaosDrillConfig is the overlay configuration of the drill: fast RPC
// deadlines so cut links are detected in wall-clock milliseconds, the
// accrual health detector, degraded serving, and the chaos engine wired in
// as the link policy.
func chaosDrillConfig(eng *chaos.Engine, dropSeed int64) overlay.Config {
	return overlay.Config{
		DropSeed:       dropSeed,
		RouteTimeout:   50 * time.Millisecond,
		RPCTimeout:     15 * time.Millisecond,
		RPCRetries:     1,
		RPCBackoff:     time.Millisecond,
		LinkPolicy:     eng.Policy,
		Health:         overlay.HealthConfig{Enabled: true, MaxScore: 4},
		DegradedRoutes: true,
		CacheRoutes:    true,
	}
}

// RunChaosDrill runs the partition→heal chaos drill on the live runtime:
// per trial, warm a request set fresh, cut one cluster off with a symmetric
// chaos partition, keep serving (counting fresh, degraded-but-valid, and
// failed answers), heal, and verify bounded reconvergence, quarantine
// drain, and byte-identical border state against a from-scratch rebuild.
func RunChaosDrill(spec env.Spec, trials, requests int) ([]ChaosDrillRow, error) {
	if trials < 1 || requests < 1 {
		return nil, errors.New("experiments: trials and requests must be >= 1")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos drill: %w", err)
	}
	topo := e.Framework.Topology()
	caps := e.Framework.Capabilities()

	rows := make([]ChaosDrillRow, 0, trials)
	for trial := 0; trial < trials; trial++ {
		c := trial % topo.NumClusters()
		var minority, majority []int
		for i := 0; i < topo.N(); i++ {
			if topo.ClusterOf(i) == c {
				minority = append(minority, i)
			} else {
				majority = append(majority, i)
			}
		}
		row := ChaosDrillRow{Cluster: c, Partitioned: len(minority), Requests: requests}

		eng := chaos.NewEngine(uint64(spec.Seed)+uint64(trial)*7919, 0)
		sys, err := overlay.New(topo, caps, chaosDrillConfig(eng, spec.Seed+int64(trial)*7919))
		if err != nil {
			return nil, err
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		if err := converge(sys, sys.Converged, convergeCap); err != nil {
			return nil, fmt.Errorf("experiments: chaos drill: fault-free phase: %w", err)
		}

		// Warm phase: resolve the request set fresh, populating the route
		// cache — its entries are the last-known-good routes too.
		reqs := make([]svc.Request, 0, requests)
		for q := 0; q < requests; q++ {
			req, err := e.NextRequest()
			if err != nil {
				return nil, err
			}
			if _, err := sys.Route(req); err != nil {
				return nil, fmt.Errorf("experiments: chaos drill: warm route: %w", err)
			}
			reqs = append(reqs, req)
		}

		// Cut: the minority cluster loses both directions to everyone
		// else. A couple of protocol rounds let the accrual detector see
		// the silence.
		if err := eng.Inject(chaos.Partition("split", minority, majority, true)); err != nil {
			return nil, err
		}
		for r := 0; r < 2; r++ {
			sys.TriggerStateRound()
			sys.Quiesce()
		}
		before := sys.FaultCounters()
		for _, req := range reqs {
			res, err := sys.Route(req)
			switch {
			case err != nil:
				row.FailedDuringCut++
			case res.Degraded:
				row.DegradedDuringCut++
				if res.Path.Validate(req, caps) == nil {
					row.DegradedValid++
				}
			default:
				row.FreshDuringCut++
			}
		}
		after := sys.FaultCounters()
		row.DroppedByPolicy = after.DroppedByPolicy - before.DroppedByPolicy

		// Heal: bounded reconvergence of the live tables, then the
		// detector must release every quarantined node.
		eng.HealAll()
		row.ReconvergeRounds = convergeCap
		for r := 1; r <= convergeCap; r++ {
			sys.TriggerStateRound()
			sys.Quiesce()
			ok, err := sys.ConvergedLive()
			if err != nil {
				return nil, err
			}
			if ok {
				row.ReconvergeRounds = r
				break
			}
		}
		for r := 0; r < 20 && len(sys.QuarantinedNodes()) > 0; r++ {
			sys.TriggerStateRound()
			sys.Quiesce()
			row.DrainRounds++
		}
		fresh := hfc.NewDynamic(topo)
		if err := fresh.Rebuild(); err != nil {
			return nil, err
		}
		row.BordersMatchRebuild = reflect.DeepEqual(sys.BorderSnapshot(), fresh.Snapshot())

		okReqs := 0
		for _, req := range reqs {
			res, err := sys.Route(req)
			if err == nil && !res.Degraded && res.Path.Validate(req, caps) == nil {
				okReqs++
			}
		}
		row.PostHealSuccess = float64(okReqs) / float64(len(reqs))

		if err := sys.Stop(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChaosDrill renders the partition-drill table.
func FormatChaosDrill(rows []ChaosDrillRow) string {
	out := "Chaos drill: partition a cluster, serve degraded, heal, reconverge\n"
	out += fmt.Sprintf("%-8s %6s %6s %9s %7s %8s %11s %6s %8s %10s\n",
		"cluster", "cut", "fresh", "degraded", "valid", "failed", "reconverge", "drain", "borders", "post-heal")
	for _, r := range rows {
		borders := "match"
		if !r.BordersMatchRebuild {
			borders = "DIVERGED"
		}
		out += fmt.Sprintf("%-8d %6d %6d %9d %7d %8d %11d %6d %8s %9.1f%%\n",
			r.Cluster, r.Partitioned, r.FreshDuringCut, r.DegradedDuringCut,
			r.DegradedValid, r.FailedDuringCut, r.ReconvergeRounds, r.DrainRounds,
			borders, 100*r.PostHealSuccess)
	}
	return out
}
