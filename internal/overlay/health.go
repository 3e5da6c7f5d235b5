package overlay

import (
	"hfc/internal/hfc"
	"hfc/internal/routing"
)

// HealthConfig switches on and bounds the accrual failure detector. Unlike
// the binary crash registry, the detector scores *partial* evidence: an RPC
// deadline missed against a node, or a protocol round that passed without
// anyone hearing the node's floods, each raise its suspicion; successful
// replies and fresh floods lower it. A node whose suspicion crosses
// healthQuarantineAt is quarantined — still running, still receiving traffic,
// but excluded from border election (via the incremental §5.2 maintainer)
// and from provider/resolver choice — until its suspicion decays below
// healthReleaseBelow, the hysteresis gap preventing flapping nodes from
// thrashing the border tables every round.
type HealthConfig struct {
	// Enabled switches the detector on.
	Enabled bool
	// MaxScore caps suspicion (default 2·healthQuarantineAt): however long
	// a node misbehaved, its release after healing takes at most
	// (MaxScore − healthReleaseBelow) / healthRelief healthy rounds — the
	// bound the chaos reconvergence invariant relies on.
	MaxScore float64
}

// The detector's scoring rules. Only the cap, HealthConfig.MaxScore, differs
// between the drills that run it.
const (
	// healthMissScore is added per missed RPC deadline attributed to a node.
	healthMissScore = 1.0
	// healthGapScore is added per protocol round of flood silence beyond
	// healthGapRounds.
	healthGapScore = 1.0
	// healthRelief is subtracted (floored at 0) per successful RPC reply and
	// per round the node's floods were heard on time.
	healthRelief = 0.5
	// healthGapRounds is how many rounds of silence are tolerated before
	// healthGapScore accrues — a freshly started system needs a round or two
	// before silence means anything.
	healthGapRounds = 2
	// healthQuarantineAt is the suspicion level at which a node is
	// quarantined.
	healthQuarantineAt = 3.0
	// healthReleaseBelow is the level a quarantined node must decay to
	// before it is restored; below healthQuarantineAt by the hysteresis gap.
	healthReleaseBelow = 1.0
)

func (h HealthConfig) withDefaults() HealthConfig {
	if h.Enabled && h.MaxScore == 0 {
		h.MaxScore = 2 * healthQuarantineAt
	}
	return h
}

// HealthStats counts the accrual detector's events.
type HealthStats struct {
	// DeadlineMisses and RPCSuccesses are the suspicion inputs from the
	// request path; RoundGaps counts flood-silence penalties.
	DeadlineMisses, RPCSuccesses, RoundGaps int
	// Quarantines and Unquarantines count state transitions.
	Quarantines, Unquarantines int
}

// noteHeard records that node `from`'s round-`seq` flood reached somebody —
// the evidence stream the round-gap scorer reads. Monotonic (CAS-max): late
// floods from old rounds never regress it.
func (s *System) noteHeard(from int, seq uint64) {
	for {
		cur := s.lastHeard[from].Load()
		if seq <= cur || s.lastHeard[from].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// noteRPCOutcome feeds one RPC attempt's outcome against a target node into
// the detector. No-op when health is disabled.
func (s *System) noteRPCOutcome(target int, ok bool) {
	if !s.cfg.Health.Enabled || target < 0 || target >= len(s.quarantined) {
		return
	}
	s.healthMu.Lock()
	if ok {
		s.healthStats.RPCSuccesses++
		s.suspicion[target] -= healthRelief
		if s.suspicion[target] < 0 {
			s.suspicion[target] = 0
		}
	} else {
		s.healthStats.DeadlineMisses++
		s.suspicion[target] += healthMissScore
		if s.suspicion[target] > s.cfg.Health.MaxScore {
			s.suspicion[target] = s.cfg.Health.MaxScore
		}
	}
	s.healthMu.Unlock()
}

// evaluateHealth runs at each protocol tick (TriggerStateRound, with seq the
// round about to start): it scores flood silence, then applies quarantine
// and release transitions. Crashed nodes are the crash registry's business
// and are skipped entirely.
func (s *System) evaluateHealth(seq uint64) {
	maxScore := s.cfg.Health.MaxScore
	var quarantine, release []int
	s.healthMu.Lock()
	for i := range s.suspicion {
		if s.crashed[i].Load() {
			continue
		}
		// Rounds of silence: floods of round seq-1 should have been heard
		// by now (the caller quiesced between rounds).
		if seq > 1 {
			heard := s.lastHeard[i].Load()
			gap := seq - 1 - heard // heard <= seq-1 always
			if gap >= healthGapRounds {
				s.suspicion[i] += healthGapScore
				if s.suspicion[i] > maxScore {
					s.suspicion[i] = maxScore
				}
				s.healthStats.RoundGaps++
			} else if gap == 0 {
				s.suspicion[i] -= healthRelief
				if s.suspicion[i] < 0 {
					s.suspicion[i] = 0
				}
			}
		}
		if !s.quarantined[i].Load() && s.suspicion[i] >= healthQuarantineAt {
			quarantine = append(quarantine, i)
			s.healthStats.Quarantines++
		} else if s.quarantined[i].Load() && s.suspicion[i] <= healthReleaseBelow {
			release = append(release, i)
			s.healthStats.Unquarantines++
		}
	}
	s.healthMu.Unlock()

	// Apply transitions outside healthMu: the border maintainer has its
	// own lock, and setElectable, which Crash/Recover use too, makes the two
	// state machines commute.
	for _, id := range quarantine {
		before := s.dyn.Table()
		if err := s.setElectable(id, false); err != nil {
			// Leave otherwise only errors on out-of-range ids, excluded
			// above; surfacing a harness bug loudly beats limping on.
			panic(err)
		}
		s.quarantined[id].Store(true)
		s.staleMembership(id, before)
	}
	for _, id := range release {
		before := s.dyn.Table()
		s.quarantined[id].Store(false)
		// A crashed node stays out. Crash raises its flag before it leaves
		// the elections, so whichever of the two runs second sees the
		// other: the check after the rejoin catches a crash that overtook
		// the check before it.
		if !s.crashed[id].Load() {
			if err := s.setElectable(id, true); err != nil {
				panic(err)
			}
			if s.crashed[id].Load() {
				if err := s.setElectable(id, false); err != nil {
					panic(err)
				}
			}
		}
		s.staleMembership(id, before)
	}
}

// clearQuarantine forgets a node's health state without touching the border
// maintainer — the crash path took over (Crash handles Leave itself, and
// Recover's Rejoin must not race a stale quarantine flag).
func (s *System) clearQuarantine(id int) {
	if !s.cfg.Health.Enabled {
		return
	}
	s.quarantined[id].Store(false)
	s.healthMu.Lock()
	s.suspicion[id] = 0
	s.healthMu.Unlock()
}

// IsQuarantined reports whether the accrual detector currently holds a node
// out of border election and provider choice. Out-of-range IDs report
// false.
func (s *System) IsQuarantined(id int) bool {
	if id < 0 || id >= len(s.quarantined) {
		return false
	}
	return s.quarantined[id].Load()
}

// QuarantinedNodes returns the IDs of currently quarantined nodes in
// increasing order.
func (s *System) QuarantinedNodes() []int {
	var out []int
	for i := range s.quarantined {
		if s.quarantined[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// SuspicionLevel returns a node's current accrual suspicion score (0 when
// health is disabled or the ID is out of range).
func (s *System) SuspicionLevel(id int) float64 {
	if !s.cfg.Health.Enabled || id < 0 || id >= s.topo.N() {
		return 0
	}
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.suspicion[id]
}

// HealthCounters snapshots the accrual detector's counters.
func (s *System) HealthCounters() HealthStats {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.healthStats
}

// BorderSnapshot deep-copies the live incremental border state — membership
// net of crashes and quarantines, plus the current elections. The chaos
// property tests compare it against a fresh rebuild after every schedule
// heals.
func (s *System) BorderSnapshot() hfc.DynamicSnapshot { return s.dyn.Snapshot() }

// degradedResult serves the last-known-good route for a request whose fresh
// resolution timed out, as a shallow copy tagged Degraded. ok is false when
// degraded serving is off, nothing good was ever known, or what sits under
// key answers a different graph with the same fingerprint.
func (s *System) degradedResult(key routing.CacheKey, canonical string) (*routing.Result, bool) {
	if !s.cfg.DegradedRoutes {
		return nil, false
	}
	v, ok := s.cache.LastKnownGood(key, canonical, nil)
	if !ok {
		return nil, false
	}
	s.dropMu.Lock()
	s.faults.DegradedRoutes++
	s.dropMu.Unlock()
	stale := *v.(*routing.Result)
	stale.Degraded = true
	return &stale, true
}
