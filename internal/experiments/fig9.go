// Package experiments regenerates every table and figure of the paper's §6
// evaluation, plus the ablation studies DESIGN.md calls out. Each Run*
// function builds seeded environments (internal/env), measures, and returns
// typed rows; the Format* helpers render them as the text tables printed by
// cmd/experiments.
package experiments

import (
	"errors"
	"fmt"

	"hfc/internal/env"
	"hfc/internal/state"
	"hfc/internal/stats"
)

// Fig9Row is one overlay size of Figures 9(a) and 9(b): per-proxy state
// overhead in node-states, flat baseline vs HFC, averaged over proxies and
// over trials.
type Fig9Row struct {
	// Proxies is the overlay size.
	Proxies int
	// FlatCoordStates and FlatServiceStates are the single-level baseline:
	// every proxy keeps one entry per overlay node (= Proxies).
	FlatCoordStates, FlatServiceStates float64
	// HFCCoordStates is Fig. 9(a)'s hierarchical bar: own-cluster members
	// plus all border proxies (deduplicated).
	HFCCoordStates float64
	// HFCServiceStates is Fig. 9(b)'s hierarchical bar: own-cluster
	// members plus one aggregate per cluster.
	HFCServiceStates float64
	// Clusters and Borders describe the topologies behind the averages.
	Clusters, Borders float64
	// Trials is the number of independent physical topologies averaged.
	Trials int
}

// RunFig9 reproduces Figures 9(a) and 9(b): for each Table 1 environment,
// build `trials` independent topologies and average each proxy's
// coordinate-related and service-related state sizes.
func RunFig9(specs []env.Spec, trials int) ([]Fig9Row, error) {
	if trials < 1 {
		return nil, errors.New("experiments: need at least 1 trial")
	}
	rows := make([]Fig9Row, 0, len(specs))
	for _, spec := range specs {
		row := Fig9Row{Proxies: spec.Proxies, Trials: trials}
		var coordMeans, svcMeans, clusters, borders []float64
		for trial := 0; trial < trials; trial++ {
			s := spec
			s.Seed = spec.Seed + int64(trial)*7919
			e, err := env.Build(s)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 size %d trial %d: %w", spec.Proxies, trial, err)
			}
			topo := e.Framework.Topology()
			states := e.Framework.States()

			var coordStates, svcStates []float64
			for node := 0; node < topo.N(); node++ {
				coordStates = append(coordStates, float64(topo.CoordinateStateSize(node)))
				svcStates = append(svcStates, float64(states[node].ServiceStateSize()))
			}
			coordMeans = append(coordMeans, stats.Mean(coordStates))
			svcMeans = append(svcMeans, stats.Mean(svcStates))
			clusters = append(clusters, float64(topo.NumClusters()))
			borders = append(borders, float64(len(topo.BorderNodes())))
		}
		row.FlatCoordStates = float64(state.FlatStateSize(spec.Proxies))
		row.FlatServiceStates = float64(state.FlatStateSize(spec.Proxies))
		row.HFCCoordStates = stats.Mean(coordMeans)
		row.HFCServiceStates = stats.Mean(svcMeans)
		row.Clusters = stats.Mean(clusters)
		row.Borders = stats.Mean(borders)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig9a renders Figure 9(a) as a text table.
func FormatFig9a(rows []Fig9Row) string {
	out := "Figure 9(a): coordinates-related node-states per proxy\n"
	out += fmt.Sprintf("%-10s %12s %14s %10s %10s\n", "proxies", "flat", "hierarchical", "clusters", "borders")
	for _, r := range rows {
		out += fmt.Sprintf("%-10d %12.1f %14.1f %10.1f %10.1f\n",
			r.Proxies, r.FlatCoordStates, r.HFCCoordStates, r.Clusters, r.Borders)
	}
	return out
}

// FormatFig9b renders Figure 9(b) as a text table.
func FormatFig9b(rows []Fig9Row) string {
	out := "Figure 9(b): service-related node-states per proxy\n"
	out += fmt.Sprintf("%-10s %12s %14s %10s\n", "proxies", "flat", "hierarchical", "clusters")
	for _, r := range rows {
		out += fmt.Sprintf("%-10d %12.1f %14.1f %10.1f\n",
			r.Proxies, r.FlatServiceStates, r.HFCServiceStates, r.Clusters)
	}
	return out
}

// FormatTable1 renders the environment settings table (Table 1).
func FormatTable1(specs []env.Spec) string {
	out := "Table 1: simulation test environments\n"
	out += fmt.Sprintf("%-18s %10s %8s %8s %15s %18s\n",
		"physical topology", "landmarks", "proxies", "clients", "services/proxy", "service req. length")
	for _, s := range specs {
		out += fmt.Sprintf("%-18d %10d %8d %8d %12d-%-3d %13d-%-3d\n",
			s.PhysicalNodes, s.Landmarks, s.Proxies, s.Clients,
			s.MinServices, s.MaxServices, s.MinRequestLen, s.MaxRequestLen)
	}
	return out
}
