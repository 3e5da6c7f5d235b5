package overlay

import (
	"errors"
	"fmt"

	"hfc/internal/hfc"
	"hfc/internal/state"
)

// Crash fail-stops a node: from now on every message addressed to it is
// silently discarded at send time (counted in FaultStats.DroppedToCrashed),
// and the runtime's failure detector reports it dead, so the border pairs it
// served are re-elected among its cluster's live members and
// resolvers/providers stop being chosen on it.
// Messages already on their way to it are still consumed — a fail-stop
// process disappears, it does not wedge the network — but no new traffic
// reaches it. Crashing an already-crashed node is a no-op.
func (s *System) Crash(id int) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("overlay: node %d out of range [0,%d)", id, len(s.nodes))
	}
	s.crashed[id].Store(true)
	// The crash registry subsumes any gray-node suspicion: a fail-stopped
	// node must not linger in quarantine, or Recover's clean Rejoin would
	// race a stale flag.
	s.clearQuarantine(id)
	// Incrementally re-elect the borders the crashed node served (§5.2):
	// only its own cluster's pairs are touched. A node the accrual detector
	// already quarantined has already left the elections; leaving twice is
	// no change, which makes the two paths commute.
	before := s.dyn.Table()
	if err := s.setElectable(id, false); err != nil {
		return fmt.Errorf("overlay: crash of %d: %w", id, err)
	}
	// Cached routes through the node's cluster may cross the dead proxy.
	s.staleMembership(id, before)
	return nil
}

// Recover rejoins a crashed node with its tables cleared in place: it knows
// only its own capability and its own cluster's aggregate-of-one, exactly like
// a freshly booted proxy, and re-learns everything from the next protocol
// rounds. The Seq round stamps survive the crash (the stand-in for the
// stable-storage epoch a real proxy would persist), so the recovered node still
// rejects floods older than what it accepted before crashing. Recovering a
// live node is a no-op.
func (s *System) Recover(id int) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("overlay: node %d out of range [0,%d)", id, len(s.nodes))
	}
	if !s.crashed[id].Load() {
		return nil
	}
	n := s.nodes[id]
	caps := s.capsOf(id)
	n.st.Lock()
	n.forgetLocked(caps)
	n.st.Unlock()
	// The rejoined node holds none of the foreign aggregates its cluster's
	// borders may have stopped re-flooding: advance the repair epoch so
	// every border repeats the intra-cluster forward once.
	s.repairEpoch[n.view.ClusterID].Add(1)
	// A recovered node starts with a clean bill of health: pre-crash
	// suspicion was evidence about a process that no longer exists.
	s.clearQuarantine(id)
	// Restore the node into the live border elections before senders can
	// see it alive, so border duty and view lookups are consistent.
	before := s.dyn.Table()
	if err := s.setElectable(id, true); err != nil {
		return fmt.Errorf("overlay: recover of %d: %w", id, err)
	}
	s.staleMembership(id, before)
	// Flip the flag last: once senders see the node live, its tables are
	// already in the clean rejoin state.
	s.crashed[id].Store(false)
	return nil
}

// setElectable puts a node into the live border elections (in) or takes it
// out; asking for the standing it already has changes nothing and is not an
// error, so the crash registry and the accrual detector can both call it for
// the same node.
func (s *System) setElectable(id int, in bool) error {
	var err error
	if in {
		err = s.dyn.Rejoin(id)
	} else {
		err = s.dyn.Leave(id)
	}
	if errors.Is(err, hfc.ErrNoChange) {
		return nil
	}
	return err
}

// staleMembership stales the cached routes a change of id's standing in the
// border elections can move, given the border table published before it
// (routing.RouteCache.AdvanceMembership).
func (s *System) staleMembership(id int, before *hfc.DenseTables) {
	if s.cache != nil {
		s.cache.AdvanceMembership(s.topo.ClusterOf(id), before, s.dyn.Table())
	}
}

// IsCrashed reports whether a node is currently fail-stopped. Out-of-range
// IDs report false.
func (s *System) IsCrashed(id int) bool {
	if id < 0 || id >= len(s.crashed) {
		return false
	}
	return s.crashed[id].Load()
}

// CrashedNodes returns the IDs of currently crashed nodes in increasing
// order.
func (s *System) CrashedNodes() []int {
	var out []int
	for i := range s.crashed {
		if s.crashed[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// ConvergedLive is Converged modulo the currently crashed set: live nodes
// must hold exact state for live members and bracketed aggregates (see
// state.VerifyConvergenceExcept); crashed nodes' frozen tables are skipped.
func (s *System) ConvergedLive() (bool, error) {
	states, release := s.tables()
	defer release()
	return state.VerifyConvergenceExcept(s.topo, s.Capabilities(), states, s.IsCrashed) == nil, nil
}

// noteDroppedAfterStop, noteStaleRejected, noteRPCRetry and
// noteResolverFailover bump the corresponding FaultStats counters.
func (s *System) noteDroppedAfterStop() {
	s.dropMu.Lock()
	s.faults.DroppedAfterStop++
	s.dropMu.Unlock()
}

func (s *System) noteStaleRejected() {
	s.dropMu.Lock()
	s.faults.StaleRejected++
	s.dropMu.Unlock()
}

func (s *System) noteRPCRetry() {
	s.dropMu.Lock()
	s.faults.RPCRetries++
	s.dropMu.Unlock()
}

func (s *System) noteResolverFailover() {
	s.dropMu.Lock()
	s.faults.ResolverFailovers++
	s.dropMu.Unlock()
}
