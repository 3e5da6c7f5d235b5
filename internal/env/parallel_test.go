package env

import (
	"math/rand"
	"testing"

	"hfc/internal/hfc"
	"hfc/internal/mesh"
	"hfc/internal/netsim"
	"hfc/internal/par/partest"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// TestBuildParallelIdenticalToSerial is the end-to-end determinism gate for
// the whole pipeline: a Spec built on a pool must produce the SAME
// environment as the one-worker build — physical delays, role placement,
// coordinates, clustering, borders and backups, converged state, mesh
// routing tables — and leave the build's own rng where the serial build
// leaves it, which the first generated request exposes.
func TestBuildParallelIdenticalToSerial(t *testing.T) {
	// Everything Build returns except the Framework's serving engine, whose
	// cache, locks and pools cannot be compared.
	type built struct {
		Net                         *netsim.Network
		Landmarks, Proxies, Clients []int
		Topology                    *hfc.Topology
		States                      []state.NodeState
		Mesh                        *mesh.Mesh
		Next                        svc.Request
	}
	partest.EachPool(t, 0, func(*rand.Rand) (built, error) {
		e, err := Build(SmallSpec(404))
		if err != nil {
			return built{}, err
		}
		next, err := e.NextRequest()
		return built{
			Net: e.Net, Landmarks: e.LandmarkPhys, Proxies: e.ProxyPhys, Clients: e.ClientPhys,
			Topology: e.Framework.Topology(), States: e.Framework.States(),
			Mesh: e.Mesh, Next: next,
		}, err
	})
}
