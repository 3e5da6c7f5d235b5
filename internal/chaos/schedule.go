package chaos

import (
	"fmt"
	"sort"

	"hfc/internal/overlay"
)

// Event is one step of a chaos timeline: immediately before protocol round
// Round fires, the listed faults are injected and/or healed.
type Event struct {
	// Round is the 1-based protocol round the event precedes.
	Round int
	// Inject lists faults switched on by this event.
	Inject []Fault
	// Heal lists fault IDs switched off; the single entry "*" heals
	// everything active.
	Heal []string
}

// Schedule is a scripted chaos timeline, replayed by a Runner.
type Schedule []Event

// Validate checks rounds and fault specs. Events need not be sorted; the
// Runner groups them by round. An ID may be reused across the timeline (a
// flapping link) but Inject/Heal pairing errors only surface at run time,
// where the active set is known.
func (s Schedule) Validate() error {
	for i, ev := range s {
		if ev.Round < 1 {
			return fmt.Errorf("chaos: event %d at round %d, rounds are 1-based", i, ev.Round)
		}
		if len(ev.Inject) == 0 && len(ev.Heal) == 0 {
			return fmt.Errorf("chaos: event %d at round %d does nothing", i, ev.Round)
		}
		for _, f := range ev.Inject {
			if err := f.Validate(); err != nil {
				return fmt.Errorf("chaos: event %d: %w", i, err)
			}
		}
		for _, id := range ev.Heal {
			if id == "" {
				return fmt.Errorf("chaos: event %d heals an empty fault ID", i)
			}
		}
	}
	return nil
}

// LastRound returns the highest event round (0 for an empty schedule).
func (s Schedule) LastRound() int {
	last := 0
	for _, ev := range s {
		if ev.Round > last {
			last = ev.Round
		}
	}
	return last
}

// Runner replays a Schedule against a running overlay, driving protocol
// rounds and recording the deterministic event trace. The overlay must have
// been built with Config.LinkPolicy = Engine.Policy.
type Runner struct {
	Sys      *overlay.System
	Engine   *Engine
	Schedule Schedule
	// ReconvergeCap bounds how many rounds past the last event the runner
	// waits for ConvergedLive (default 15). Hitting the cap is reported,
	// not an error: a schedule that never heals is allowed to end diverged.
	ReconvergeCap int
}

// Report is the outcome of one Runner.Run.
type Report struct {
	// RoundsRun is the total protocol rounds driven.
	RoundsRun int
	// Converged reports whether ConvergedLive held when the run ended, and
	// ReconvergeRounds is how many rounds past the schedule's last event
	// that took (0 = already converged at the last event, -1 = never).
	Converged        bool
	ReconvergeRounds int
	// Trace is the deterministic event trace: one line per schedule action
	// in round order, then the engine's sorted per-link counter summary.
	// Identical seed + schedule ⇒ byte-identical Trace.
	Trace []string
}

// Run validates the schedule and replays it: events fire before their
// round's TriggerStateRound, every round quiesces, and after the final
// event the runner keeps driving rounds until the overlay re-converges
// (modulo crashed nodes) or ReconvergeCap rounds pass.
func (r *Runner) Run() (*Report, error) {
	if err := r.Schedule.Validate(); err != nil {
		return nil, err
	}
	cap := r.ReconvergeCap
	if cap <= 0 {
		cap = 15
	}
	byRound := make(map[int][]Event, len(r.Schedule))
	for _, ev := range r.Schedule {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
	}
	for _, evs := range byRound {
		sort.SliceStable(evs, func(i, j int) bool { return len(evs[i].Heal) > len(evs[j].Heal) })
	}
	last := r.Schedule.LastRound()

	rep := &Report{ReconvergeRounds: -1}
	for round := 1; round <= last+cap; round++ {
		for _, ev := range byRound[round] {
			// Heals before injects (the stable sort above): a same-round
			// heal+inject of one ID is a reconfiguration, not a collision.
			for _, id := range ev.Heal {
				if id == "*" {
					n := r.Engine.HealAll()
					rep.Trace = append(rep.Trace, fmt.Sprintf("round %d: heal * (%d faults)", round, n))
					continue
				}
				if !r.Engine.Heal(id) {
					return nil, fmt.Errorf("chaos: round %d heals %q, which is not active", round, id)
				}
				rep.Trace = append(rep.Trace, fmt.Sprintf("round %d: heal %s", round, id))
			}
			for _, f := range ev.Inject {
				if err := r.Engine.Inject(f); err != nil {
					return nil, fmt.Errorf("chaos: round %d: %w", round, err)
				}
				rep.Trace = append(rep.Trace, fmt.Sprintf("round %d: inject %s", round, f.ID))
			}
		}
		r.Sys.TriggerStateRound()
		r.Sys.Quiesce()
		rep.RoundsRun = round
		if round >= last {
			ok, err := r.Sys.ConvergedLive()
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Converged = true
				rep.ReconvergeRounds = round - last
				break
			}
		}
	}
	rep.Trace = append(rep.Trace, r.Engine.Summary()...)
	return rep, nil
}
