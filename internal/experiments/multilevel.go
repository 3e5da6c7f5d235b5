package experiments

import (
	"errors"
	"fmt"
	"math"

	"hfc/internal/env"
	"hfc/internal/mlhfc"
	"hfc/internal/stats"
)

// MultiLevelRow compares the bi-level framework with the tri-level
// extension on one environment.
type MultiLevelRow struct {
	Proxies int
	// Groups and Clusters describe the tri-level structure (inner-cluster
	// count summed over groups).
	Groups, Clusters int
	// BiCoordStates/TriCoordStates: mean per-proxy coordinate node-states.
	BiCoordStates, TriCoordStates float64
	// BiSvcStates/TriSvcStates: mean per-proxy service node-states.
	BiSvcStates, TriSvcStates float64
	// BiPathAvg/TriPathAvg: mean true-delay path lengths over the same
	// request stream.
	BiPathAvg, TriPathAvg float64
	Requests              int
}

// RunMultiLevel builds each environment, constructs the tri-level topology
// over the same embedded coordinates and deployments, and measures the
// state-vs-path-quality trade of adding the third hierarchy level.
func RunMultiLevel(specs []env.Spec, requests int) ([]MultiLevelRow, error) {
	if requests < 1 {
		return nil, errors.New("experiments: need at least 1 request")
	}
	rows := make([]MultiLevelRow, 0, len(specs))
	for _, spec := range specs {
		e, err := env.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: multilevel size %d: %w", spec.Proxies, err)
		}
		fw := e.Framework
		biTopo := fw.Topology()
		caps := fw.Capabilities()

		// Real embeddings rarely expose a crisp second distance scale, so
		// pick the hierarchy fan-out: √(#bi-level clusters) balances the
		// group count against group sizes.
		cfg := mlhfc.DefaultConfig()
		cfg.TargetGroups = int(math.Round(math.Sqrt(float64(biTopo.NumClusters()))))
		tri, err := mlhfc.Build(biTopo.Coords(), cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: multilevel tri build: %w", err)
		}
		triStates, err := mlhfc.Distribute(tri, caps)
		if err != nil {
			return nil, err
		}
		if err := mlhfc.Verify(tri, caps, triStates); err != nil {
			return nil, err
		}

		row := MultiLevelRow{Proxies: spec.Proxies, Groups: tri.NumGroups(), Requests: requests}
		var biCoord, triCoord, biSvc, triSvc []float64
		biStates := fw.States()
		for node := 0; node < biTopo.N(); node++ {
			biCoord = append(biCoord, float64(biTopo.CoordinateStateSize(node)))
			biSvc = append(biSvc, float64(biStates[node].ServiceStateSize()))
			triCoord = append(triCoord, float64(tri.CoordinateStateSize(node)))
			triSvc = append(triSvc, float64(tri.ServiceStateSize(node)))
		}
		for g := 0; g < tri.NumGroups(); g++ {
			row.Clusters += tri.Interior(g).NumClusters()
		}
		row.BiCoordStates = stats.Mean(biCoord)
		row.TriCoordStates = stats.Mean(triCoord)
		row.BiSvcStates = stats.Mean(biSvc)
		row.TriSvcStates = stats.Mean(triSvc)

		var biLens, triLens []float64
		for i := 0; i < requests; i++ {
			req, err := e.NextRequest()
			if err != nil {
				return nil, err
			}
			biPath, err := fw.Route(req)
			if err != nil {
				return nil, fmt.Errorf("experiments: multilevel bi route: %w", err)
			}
			triRes, err := mlhfc.Route(tri, triStates, req)
			if err != nil {
				return nil, fmt.Errorf("experiments: multilevel tri route: %w", err)
			}
			if err := triRes.Path.Validate(req, caps); err != nil {
				return nil, fmt.Errorf("experiments: multilevel tri path invalid: %w", err)
			}
			biLens = append(biLens, biPath.Length(e.TrueDist))
			triLens = append(triLens, triRes.Path.Length(e.TrueDist))
		}
		row.BiPathAvg = stats.Mean(biLens)
		row.TriPathAvg = stats.Mean(triLens)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatMultiLevel renders the comparison table.
func FormatMultiLevel(rows []MultiLevelRow) string {
	out := "Multi-level extension: bi-level vs tri-level HFC (same coordinates & deployments)\n"
	out += fmt.Sprintf("%-8s %7s %9s %11s %11s %10s %10s %10s %10s\n",
		"proxies", "groups", "clusters", "bi-coord", "tri-coord", "bi-svc", "tri-svc", "bi-len", "tri-len")
	for _, r := range rows {
		out += fmt.Sprintf("%-8d %7d %9d %11.1f %11.1f %10.1f %10.1f %10.1f %10.1f\n",
			r.Proxies, r.Groups, r.Clusters, r.BiCoordStates, r.TriCoordStates,
			r.BiSvcStates, r.TriSvcStates, r.BiPathAvg, r.TriPathAvg)
	}
	return out
}
