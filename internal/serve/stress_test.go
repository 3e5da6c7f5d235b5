package serve_test

import (
	"math/rand"
	"sync"
	"testing"

	"hfc/internal/serve"
	"hfc/internal/svc"
)

// TestEngineStressChurn hammers one engine with concurrent resolutions
// while a churn goroutine moves a service between two carrier nodes
// (modelling provider crash/recovery) and fires cluster- and engine-wide
// invalidations. Run under -race in CI (the serve-engine job).
//
// Invariants asserted:
//
//   - a resolution concurrent with churn returns a path valid under the
//     union of the old and new deployments (linearizable: the route was
//     correct at some instant during the call);
//   - a path serving the churned service uses one of the two carriers,
//     never any other node (no torn state);
//   - requests for unchurned services always validate against the static
//     deployment;
//   - after churn stops and a final invalidation, every resolution is
//     valid under exactly the current deployment — no stale route served;
//   - a second quiesced pass over the static requests is answered from the
//     cache, every one of them.
//
// Nothing is asserted about what the concurrent phase reaches — whether a
// resolver repeats a request between two invalidations depends on how the
// goroutines interleave, and a cheap update lets the churn finish first. The
// cache hit is asserted where it is deterministic, in the quiesced phase. The
// load recipe that shook out the old "stress run never hit the cache" flake
// (25 of 500 runs on two cores; 0 of 500 since) is, from the repository root:
//
//	while :; do go test -count=1 ./internal/experiments/; done &
//	go test -run TestEngineStressChurn -count 500 ./internal/serve/
//	kill %1
func TestEngineStressChurn(t *testing.T) {
	_, eng, caps := buildEngine(t, 81, 30, serve.Config{})

	const flip svc.Service = "churned-service"
	carrierA, carrierB := 3, 19
	withFlip := func(node int) svc.CapabilitySet {
		c := caps[node].Clone()
		c.Add(flip)
		return c
	}
	// Union deployment: during churn a path is valid if each hop's service
	// was installed on its node under the old or the new deployment.
	unionCaps := make([]svc.CapabilitySet, len(caps))
	for i, c := range caps {
		unionCaps[i] = c.Clone()
	}
	unionCaps[carrierA].Add(flip)
	unionCaps[carrierB].Add(flip)

	if err := eng.UpdateCapability(carrierA, withFlip(carrierA)); err != nil {
		t.Fatalf("seed carrier: %v", err)
	}

	flipSG, err := svc.Linear(flip)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	flipReqs := []svc.Request{
		{Source: 0, Dest: 1, SG: flipSG},
		{Source: 7, Dest: 12, SG: flipSG},
		{Source: 22, Dest: 5, SG: flipSG},
	}
	rng := rand.New(rand.NewSource(82))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	staticReqs := make([]svc.Request, 12)
	for i := range staticReqs {
		if staticReqs[i], err = gen.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}

	const (
		resolvers = 6
		rounds    = 40
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn: alternate the flip carrier, with interleaved invalidations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			from, to := carrierA, carrierB
			if i%2 == 1 {
				from, to = carrierB, carrierA
			}
			// Install on the new carrier before removing from the old one,
			// so the service never vanishes entirely (resolvers treat
			// ErrNoProviders as a hard failure).
			if err := eng.UpdateCapability(to, withFlip(to)); err != nil {
				t.Errorf("churn %d install: %v", i, err)
				return
			}
			if err := eng.UpdateCapability(from, caps[from]); err != nil {
				t.Errorf("churn %d remove: %v", i, err)
				return
			}
			switch i % 5 {
			case 2:
				eng.InvalidateCluster(eng.Topology().ClusterOf(to))
			case 4:
				eng.InvalidateAll()
			}
		}
	}()

	for g := 0; g < resolvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := flipReqs[(g+i)%len(flipReqs)]
				p, err := eng.Resolve(req)
				if err != nil {
					t.Errorf("resolver %d: flip request: %v", g, err)
					return
				}
				if err := p.Validate(req, unionCaps); err != nil {
					t.Errorf("resolver %d: path invalid under union deployment: %v", g, err)
					return
				}
				for _, h := range p.Hops {
					if h.Service == flip && h.Node != carrierA && h.Node != carrierB {
						t.Errorf("resolver %d: %q served by node %d, not a carrier", g, flip, h.Node)
						return
					}
				}
				sreq := staticReqs[(g*7+i)%len(staticReqs)]
				sp, err := eng.Resolve(sreq)
				if err != nil {
					t.Errorf("resolver %d: static request: %v", g, err)
					return
				}
				if err := sp.Validate(sreq, unionCaps); err != nil {
					t.Errorf("resolver %d: static path invalid: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: pin the carrier, invalidate everything, and require every
	// resolution to be exact under the final deployment.
	if err := eng.UpdateCapability(carrierA, withFlip(carrierA)); err != nil {
		t.Fatalf("final install: %v", err)
	}
	if err := eng.UpdateCapability(carrierB, caps[carrierB]); err != nil {
		t.Fatalf("final remove: %v", err)
	}
	eng.InvalidateAll()
	final := eng.Capabilities()
	for _, req := range flipReqs {
		p, err := eng.Resolve(req)
		if err != nil {
			t.Fatalf("final resolve: %v", err)
		}
		if err := p.Validate(req, final); err != nil {
			t.Errorf("stale route served after final invalidation: %v", err)
		}
		for _, h := range p.Hops {
			if h.Service == flip && h.Node != carrierA {
				t.Errorf("final %q carrier = %d, want %d", flip, h.Node, carrierA)
			}
		}
	}
	for _, req := range staticReqs {
		p, err := eng.Resolve(req)
		if err != nil {
			t.Fatalf("final static resolve: %v", err)
		}
		if err := p.Validate(req, final); err != nil {
			t.Errorf("final static path invalid: %v", err)
		}
	}

	// Nothing changed since the pass above: every static request is a hit.
	before := eng.Stats()
	for _, req := range staticReqs {
		if _, err := eng.Resolve(req); err != nil {
			t.Fatalf("second static resolve: %v", err)
		}
	}
	after := eng.Stats()
	if hits := after.Cache.Hits - before.Cache.Hits; hits != int64(len(staticReqs)) || after.Resolutions != before.Resolutions {
		t.Errorf("quiesced second pass: %d of %d static requests hit the cache, %d resolved afresh",
			hits, len(staticReqs), after.Resolutions-before.Resolutions)
	}
	if after.Resolutions == 0 {
		t.Error("stress run performed no full resolutions")
	}
}
