package overlay

import (
	"strings"
	"testing"
	"time"
)

// TestSimulateDeterministic is the core virtual-time property: two runs of
// the same seeded scenario — churn, a partition, crash/recover cycles, and
// route probes included — produce byte-identical event traces and the same
// state digest.
func TestSimulateDeterministic(t *testing.T) {
	spec := SimSpec{N: 600, Churn: 4, Crashes: 2, Partition: true, Probes: 8, MeasureImprecision: true}
	a, err := Simulate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace {
		t.Errorf("same-seed traces differ:\n--- run A ---\n%s\n--- run B ---\n%s", a.Trace, b.Trace)
	}
	if a.StateDigest != b.StateDigest {
		t.Errorf("same-seed digests differ: %x vs %x", a.StateDigest, b.StateDigest)
	}
	if a.Traffic != b.Traffic {
		t.Errorf("same-seed traffic differs: %+v vs %+v", a.Traffic, b.Traffic)
	}
	if a.VirtualTime != b.VirtualTime {
		t.Errorf("same-seed virtual clocks differ: %v vs %v", a.VirtualTime, b.VirtualTime)
	}
	c, err := Simulate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace == a.Trace {
		t.Error("different seeds produced identical traces")
	}
}

// TestSimulateFlatConvergesWithFaults checks the protocol outcome of a flat
// run: full convergence despite the injected faults, all probes routable,
// and the paper's ≤2 consecutive relays on every probed path.
func TestSimulateFlatConvergesWithFaults(t *testing.T) {
	rep, err := Simulate(SimSpec{N: 600, Churn: 4, Crashes: 2, Partition: true, Probes: 10,
		MeasureImprecision: true, DelayPerUnit: time.Microsecond}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Error("flat simulation did not converge")
	}
	if rep.Probes == 0 || rep.ProbeFailures != 0 {
		t.Errorf("probes %d with %d failures, want >0 with 0", rep.Probes, rep.ProbeFailures)
	}
	if rep.MaxRelayRun > 2 {
		t.Errorf("max consecutive relay run %d exceeds the paper's 2-relay bound", rep.MaxRelayRun)
	}
	if rep.MeanImprecision < 1 {
		t.Errorf("mean imprecision %v below 1 (hierarchical cannot beat optimal)", rep.MeanImprecision)
	}
	if rep.Faults.DroppedToCrashed == 0 {
		t.Error("crash cycles injected but no message was dropped at a crashed node")
	}
	if rep.VirtualTime == 0 {
		t.Error("virtual clock never advanced")
	}
	if !strings.Contains(rep.Trace, "partition") {
		t.Error("trace does not record the partition phase")
	}
}

// TestSimulateMultilevelConverges runs the tri-level hierarchy end to end:
// per-group overlays on one shared scheduler plus the harness-maintained
// super layer, with churn and crashes, and checks global convergence and
// the deterministic digest.
func TestSimulateMultilevelConverges(t *testing.T) {
	spec := SimSpec{N: 1200, Multilevel: true, Churn: 3, Crashes: 2, Probes: 8}
	a, err := Simulate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged {
		t.Error("multilevel simulation did not converge")
	}
	if a.Groups < 2 {
		t.Errorf("got %d groups, want >= 2", a.Groups)
	}
	if a.Probes == 0 || a.ProbeFailures != 0 {
		t.Errorf("probes %d with %d failures, want >0 with 0", a.Probes, a.ProbeFailures)
	}
	// Per round every group's aggregate reaches each of the other groups'
	// members: one exchange to the super border, a forward to each of the rest.
	if want := a.Rounds * (a.Groups - 1) * a.N; a.SuperMessages != want {
		t.Errorf("super layer exchanged %d messages over %d rounds, want %d", a.SuperMessages, a.Rounds, want)
	}
	b, err := Simulate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != b.Trace || a.StateDigest != b.StateDigest {
		t.Error("same-seed multilevel runs diverged")
	}
}

// TestSimulateRejectsBadSpec pins the argument validation.
func TestSimulateRejectsBadSpec(t *testing.T) {
	if _, err := Simulate(SimSpec{N: 8}, 1); err == nil {
		t.Error("Simulate accepted N=8")
	}
	if _, err := Simulate(SimSpec{N: 1200, Multilevel: true, Partition: true}, 1); err == nil {
		t.Error("Simulate accepted Multilevel with Partition, which it would silently not run")
	}
}
