package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/env"
	"hfc/internal/hfc"
	"hfc/internal/overlay"
	"hfc/internal/routing"
	"hfc/internal/stats"
	"hfc/internal/svc"
)

// FaultsRow is one crash fraction of the fault-tolerance experiment.
type FaultsRow struct {
	// CrashFraction is the fraction of overlay nodes fail-stopped before
	// the request phase (crashes land on non-border nodes; border failover
	// is measured separately by RunBorderFailover).
	CrashFraction float64
	// CrashedPerTrial is the mean number of nodes actually crashed.
	CrashedPerTrial float64
	// ReconvergeRounds is the mean number of protocol rounds after the
	// crashes until the live nodes' tables verify (ConvergedLive).
	ReconvergeRounds float64
	// SuccessRate is the fraction of requests that returned a valid path
	// with every hop live.
	SuccessRate float64
	// RetriesPerRequest and FailoversPerRequest are mean RPC re-attempts
	// and alternate-resolver failovers per request.
	RetriesPerRequest, FailoversPerRequest float64
	// Stretch is the mean faulted path length over the mean no-fault
	// baseline length (synchronous model on the same requests), in the
	// embedded-coordinate metric. 1.0 means crashes cost nothing.
	Stretch float64
	// Requests and Trials record the sample sizes.
	Requests, Trials int
}

// RunFaults measures end-to-end request survival on the live runtime as an
// increasing fraction of nodes fail-stop: re-convergence of the §4 state
// protocol modulo the crashed set, request success rate (valid path, all
// hops live), RPC retry/failover effort, and path stretch against the
// fault-free synchronous baseline on the identical request sequence.
func RunFaults(spec env.Spec, crashFractions []float64, trials, requests int) ([]FaultsRow, error) {
	if len(crashFractions) == 0 {
		return nil, errors.New("experiments: empty crash-fraction sweep")
	}
	if trials < 1 || requests < 1 {
		return nil, errors.New("experiments: trials and requests must be >= 1")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: faults: %w", err)
	}
	topo := e.Framework.Topology()
	caps := e.Framework.Capabilities()

	// Crashes are drawn from nodes with no border duty: the paper's
	// clustering keeps border pairs long-lived, and border failover has its
	// own experiment.
	var crashable []int
	for i := 0; i < topo.N(); i++ {
		if !topo.IsBorder(i) {
			crashable = append(crashable, i)
		}
	}

	rows := make([]FaultsRow, 0, len(crashFractions))
	for fi, frac := range crashFractions {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("experiments: crash fraction %v outside [0,1)", frac)
		}
		row := FaultsRow{CrashFraction: frac, Requests: requests, Trials: trials}
		var crashed, rounds, success, retries, failovers, lenFault, lenBase []float64
		for trial := 0; trial < trials; trial++ {
			sys, err := overlay.New(topo, caps, overlay.Config{RPCRetries: 1})
			if err != nil {
				return nil, err
			}
			if err := sys.Start(); err != nil {
				return nil, err
			}
			if err := converge(sys, sys.Converged, convergeCap); err != nil {
				return nil, fmt.Errorf("experiments: faults: fault-free phase: %w", err)
			}

			nCrash := int(frac*float64(topo.N()) + 0.5)
			if nCrash > len(crashable) {
				nCrash = len(crashable)
			}
			perm := permFor(spec.Seed+int64(fi)*104729+int64(trial)*7919, len(crashable))
			for i := 0; i < nCrash; i++ {
				if err := sys.Crash(crashable[perm[i]]); err != nil {
					return nil, err
				}
			}
			crashed = append(crashed, float64(nCrash))

			used := float64(convergeCap)
			for r := 1; r <= convergeCap; r++ {
				sys.TriggerStateRound()
				sys.Quiesce()
				ok, err := sys.ConvergedLive()
				if err != nil {
					return nil, err
				}
				if ok {
					used = float64(r)
					break
				}
			}
			rounds = append(rounds, used)

			before := sys.FaultCounters()
			okReqs := 0
			for q := 0; q < requests; q++ {
				req, err := liveRequest(e, sys)
				if err != nil {
					return nil, err
				}
				base, err := e.Framework.Route(req)
				if err != nil {
					// The generator only emits satisfiable requests; a
					// baseline failure is a harness bug.
					return nil, fmt.Errorf("experiments: faults: baseline route: %w", err)
				}
				res, err := sys.Route(req)
				if err != nil || !allHopsLive(sys, res.Path) || res.Path.Validate(req, caps) != nil {
					continue
				}
				okReqs++
				lenFault = append(lenFault, pathLength(topo, res.Path))
				lenBase = append(lenBase, pathLength(topo, base))
			}
			after := sys.FaultCounters()
			success = append(success, float64(okReqs)/float64(requests))
			retries = append(retries, float64(after.RPCRetries-before.RPCRetries)/float64(requests))
			failovers = append(failovers, float64(after.ResolverFailovers-before.ResolverFailovers)/float64(requests))
			if err := sys.Stop(); err != nil {
				return nil, err
			}
		}
		row.CrashedPerTrial = stats.Mean(crashed)
		row.ReconvergeRounds = stats.Mean(rounds)
		row.SuccessRate = stats.Mean(success)
		row.RetriesPerRequest = stats.Mean(retries)
		row.FailoversPerRequest = stats.Mean(failovers)
		if b := stats.Mean(lenBase); b > 0 {
			row.Stretch = stats.Mean(lenFault) / b
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BorderFailoverRow is one trial of the border-proxy failover experiment.
type BorderFailoverRow struct {
	// ClusterA, ClusterB is the cluster pair whose border was attacked;
	// CrashedBorder is the endpoint in ClusterA that was crashed.
	ClusterA, ClusterB, CrashedBorder int
	// ReconvergeRounds is how many protocol rounds the system needed to
	// verify again (modulo the crash) with border duty on the re-elected pair.
	ReconvergeRounds int
	// SuccessRate is the request success rate after failover.
	SuccessRate float64
	// RecoverRounds is how many rounds full strict convergence took after
	// the border recovered.
	RecoverRounds int
	Requests      int
}

// RunBorderFailover crashes a border proxy, measures how many §4 rounds the
// runtime needs to re-converge through the re-elected pair — the closest
// pair of the two clusters' live members — checks that requests keep
// succeeding, then recovers the node and measures the return to strict
// convergence.
func RunBorderFailover(spec env.Spec, trials, requests int) ([]BorderFailoverRow, error) {
	if trials < 1 || requests < 1 {
		return nil, errors.New("experiments: trials and requests must be >= 1")
	}
	e, err := env.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: border failover: %w", err)
	}
	topo := e.Framework.Topology()
	caps := e.Framework.Capabilities()

	// Cluster pairs whose attacked cluster keeps a live member to re-elect.
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < topo.NumClusters(); a++ {
		if len(topo.Members(a)) < 2 {
			continue
		}
		for b := a + 1; b < topo.NumClusters(); b++ {
			pairs = append(pairs, pair{a, b})
		}
	}
	if len(pairs) == 0 {
		return nil, errors.New("experiments: border failover: no cluster pair whose attacked side has two members")
	}

	rows := make([]BorderFailoverRow, 0, trials)
	for trial := 0; trial < trials; trial++ {
		p := pairs[trial%len(pairs)]
		inA, _, err := topo.Border(p.a, p.b)
		if err != nil {
			return nil, err
		}
		sys, err := overlay.New(topo, caps, overlay.Config{RPCRetries: 1})
		if err != nil {
			return nil, err
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		if err := converge(sys, sys.Converged, convergeCap); err != nil {
			return nil, fmt.Errorf("experiments: border failover: fault-free phase: %w", err)
		}

		if err := sys.Crash(inA); err != nil {
			return nil, err
		}
		row := BorderFailoverRow{ClusterA: p.a, ClusterB: p.b, CrashedBorder: inA, Requests: requests}
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
		okReqs := 0
		for q := 0; q < requests; q++ {
			req, err := liveRequest(e, sys)
			if err != nil {
				return nil, err
			}
			res, err := sys.Route(req)
			if err == nil && allHopsLive(sys, res.Path) && res.Path.Validate(req, caps) == nil {
				okReqs++
			}
		}
		row.SuccessRate = float64(okReqs) / float64(requests)

		if err := sys.Recover(inA); err != nil {
			return nil, err
		}
		row.RecoverRounds = convergeCap
		for r := 1; r <= convergeCap; r++ {
			sys.TriggerStateRound()
			sys.Quiesce()
			ok, err := sys.Converged()
			if err != nil {
				return nil, err
			}
			if ok {
				row.RecoverRounds = r
				break
			}
		}
		if err := sys.Stop(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFaults renders the crash-fraction table.
func FormatFaults(rows []FaultsRow) string {
	out := "Fault tolerance: request survival under node crashes (live runtime)\n"
	out += fmt.Sprintf("%-12s %8s %11s %9s %12s %13s %9s\n",
		"crash frac", "crashed", "reconverge", "success", "retries/req", "failover/req", "stretch")
	for _, r := range rows {
		out += fmt.Sprintf("%-12.2f %8.1f %11.1f %8.1f%% %12.3f %13.3f %9.3f\n",
			r.CrashFraction, r.CrashedPerTrial, r.ReconvergeRounds,
			100*r.SuccessRate, r.RetriesPerRequest, r.FailoversPerRequest, r.Stretch)
	}
	return out
}

// FormatBorderFailover renders the border-failover table.
func FormatBorderFailover(rows []BorderFailoverRow) string {
	out := "Border-proxy failover: crash a border, converge via the re-elected pair\n"
	out += fmt.Sprintf("%-10s %8s %11s %9s %14s\n",
		"pair", "border", "reconverge", "success", "recover rounds")
	for _, r := range rows {
		out += fmt.Sprintf("%2d <-> %-3d %8d %11d %8.1f%% %14d\n",
			r.ClusterA, r.ClusterB, r.CrashedBorder, r.ReconvergeRounds, 100*r.SuccessRate, r.RecoverRounds)
	}
	return out
}

// convergeCap bounds every converge loop; the lossless runtime settles in
// one round, so hitting the cap means something is broken.
const convergeCap = 15

// converge drives protocol rounds until check passes, erroring at the cap.
func converge(sys *overlay.System, check func() (bool, error), limit int) error {
	for r := 1; r <= limit; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		ok, err := check()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("no convergence within %d rounds", limit)
}

// liveRequest draws a request whose endpoints are both live.
func liveRequest(e *env.Environment, sys *overlay.System) (svc.Request, error) {
	for tries := 0; tries < 100; tries++ {
		req, err := e.NextRequest()
		if err != nil {
			return svc.Request{}, err
		}
		if !sys.IsCrashed(req.Source) && !sys.IsCrashed(req.Dest) {
			return req, nil
		}
	}
	return svc.Request{}, errors.New("experiments: could not draw a live-endpoint request in 100 tries")
}

// allHopsLive reports whether no hop of the path is currently crashed.
func allHopsLive(sys *overlay.System, p *routing.Path) bool {
	if p == nil {
		return false
	}
	for _, h := range p.Hops {
		if sys.IsCrashed(h.Node) {
			return false
		}
	}
	return true
}

// pathLength sums the embedded-coordinate hop distances of a path.
func pathLength(topo *hfc.Topology, p *routing.Path) float64 {
	var d float64
	for i := 1; i < len(p.Hops); i++ {
		d += topo.Dist(p.Hops[i-1].Node, p.Hops[i].Node)
	}
	return d
}

// permFor is a deterministic permutation of [0,n) derived from a seed —
// the crash-set draw, reproducible per (fraction, trial).
func permFor(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
