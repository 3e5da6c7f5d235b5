package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"hfc/internal/env"
	"hfc/internal/qos"
)

func TestRunQoS(t *testing.T) {
	spec := env.SmallSpec(401)
	rows, err := RunQoS(spec, DefaultQoSSettings(), 60)
	if err != nil {
		t.Fatalf("RunQoS: %v", err)
	}
	if len(rows) != len(DefaultQoSSettings()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Success rates are probabilities.
		for _, v := range []float64{r.FlatSuccess, r.OptSuccess, r.PessSuccess, r.OptFalseBlocked, r.PessFalseBlocked} {
			if v < 0 || v > 1 {
				t.Fatalf("rate %v out of [0,1] in %+v", v, r)
			}
		}
		// Hierarchical can never admit more than flat (flat has full
		// state and the same topology constraint), and pessimistic can
		// never admit more than optimistic.
		if r.OptSuccess > r.FlatSuccess+1e-9 {
			t.Errorf("optimistic success %v above flat %v", r.OptSuccess, r.FlatSuccess)
		}
		if r.PessSuccess > r.OptSuccess+1e-9 {
			t.Errorf("pessimistic success %v above optimistic %v", r.PessSuccess, r.OptSuccess)
		}
		// Flat's delay-optimal feasible path is a lower bound.
		if r.OptAvgLen != 0 && r.FlatAvgLen > r.OptAvgLen+1e-9 {
			t.Errorf("flat avg %v above hierarchical %v", r.FlatAvgLen, r.OptAvgLen)
		}
	}
	// The unconstrained row must admit everything everywhere.
	if rows[0].FlatSuccess != 1 || rows[0].OptSuccess != 1 || rows[0].PessSuccess != 1 {
		t.Errorf("unconstrained row not fully admitted: %+v", rows[0])
	}
	if !strings.Contains(FormatQoS(rows), "QoS extension") {
		t.Error("FormatQoS missing header")
	}
}

func TestRunQoSValidation(t *testing.T) {
	spec := env.SmallSpec(1)
	if _, err := RunQoS(spec, nil, 5); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunQoS(spec, []qos.Constraints{{}}, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

// TestQoSRouterNeverReportsInternalError runs the qos experiment's request
// streams through both admission policies and reads every error: a request
// the hierarchy cannot place is blocked with a routing error, never with the
// router's own "composed path violates constraints" alarm. (A relay-only
// child used to ignore MinBandwidth: 335 of these 12 600 routes tripped the
// alarm, and the experiment booked them as aggregation false-blocks.)
func TestQoSRouterNeverReportsInternalError(t *testing.T) {
	const requests = 300
	for _, seed := range []int64{42, 7, 99} {
		spec := env.SmallSpec(seed)
		e, err := env.Build(spec)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		prof, err := e.QoSProfile(rand.New(rand.NewSource(spec.Seed+99)), 0, 0.95)
		if err != nil {
			t.Fatalf("seed %d: QoSProfile: %v", seed, err)
		}
		fw := e.Framework
		opt, err := qos.NewRouter(fw.Topology(), fw.States(), fw.Capabilities(), prof)
		if err != nil {
			t.Fatalf("seed %d: NewRouter: %v", seed, err)
		}
		pess, err := qos.NewRouter(fw.Topology(), fw.States(), fw.Capabilities(), prof)
		if err != nil {
			t.Fatalf("seed %d: NewRouter: %v", seed, err)
		}
		pess.Policy = qos.PolicyPessimistic
		for i := 0; i < requests; i++ {
			req, err := e.NextRequest()
			if err != nil {
				t.Fatalf("seed %d: NextRequest: %v", seed, err)
			}
			for _, cons := range DefaultQoSSettings() {
				for _, r := range []*qos.Router{opt, pess} {
					if _, err := r.Route(req, cons); err != nil && strings.Contains(err.Error(), "internal error") {
						t.Errorf("seed %d request %d %+v policy %v: %v", seed, i, cons, r.Policy, err)
					}
				}
			}
		}
	}
}
