package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// The differential oracle's engine leg: one seeded sequence of operations
// driven through serve.Engine and, after every step, held to an engine built
// from scratch over the same deployment and availability.

// errClass names the error a resolve failed with, coarsely enough that two
// engines failing for the same reason agree.
func errClass(err error) string {
	for _, sentinel := range []error{routing.ErrNoProviders, routing.ErrInfeasible, serve.ErrUnavailable} {
		if errors.Is(err, sentinel) {
			return sentinel.Error()
		}
	}
	if err != nil {
		return "other"
	}
	return "ok"
}

// checkAnswer holds what eng answered for req — got or gotErr — to what an
// engine built from scratch over the same deployment (caps) and availability
// answered, and to the paper's invariants:
//
//   - a fresh (non-degraded) answer is the reference's bit for bit, and a
//     failure fails with the reference's error class;
//   - a degraded answer stands in only where a fresh one is impossible: the
//     destination is unavailable or the reference fails;
//   - every path answers the request against the deployment (the providers
//     visited in service-graph order), keeps within the §3 bound of two
//     relays between services, and, when fresh, performs no service on and
//     relays through no unavailable proxy.
func checkAnswer(eng *serve.Engine, caps []svc.CapabilitySet, req svc.Request, got *routing.Result, gotErr error, want *routing.Result, wantErr error) error {
	if gotErr != nil {
		if errClass(gotErr) != errClass(wantErr) {
			return fmt.Errorf("engine err %v, a fresh engine's %v", gotErr, wantErr)
		}
		return nil
	}
	if err := got.Path.Validate(req, caps); err != nil {
		return fmt.Errorf("degraded %v: %w", got.Degraded, err)
	}
	run := 0
	for i, h := range got.Path.Hops {
		if i == 0 || i == len(got.Path.Hops)-1 || h.Service != "" {
			run = 0
		} else if run++; run > hfc.MaxOverlayHops-1 {
			return fmt.Errorf("%d relays in a row, §3 allows %d: %v", run, hfc.MaxOverlayHops-1, got.Path)
		}
	}
	if got.Degraded {
		if eng.IsUnavailable(req.Dest) || wantErr != nil {
			return nil
		}
		return fmt.Errorf("served degraded %v where a fresh engine resolves %v", got.Path, want.Path)
	}
	if wantErr != nil {
		return fmt.Errorf("engine resolves %v, a fresh engine fails: %v", got.Path, wantErr)
	}
	for i, h := range got.Path.Hops {
		if (i > 0 || h.Service != "") && eng.IsUnavailable(h.Node) {
			return fmt.Errorf("fresh path %v uses unavailable proxy %d", got.Path, h.Node)
		}
	}
	if want.Degraded || got.CSPCost != want.CSPCost || got.Path.DecisionCost != want.Path.DecisionCost || !reflect.DeepEqual(got.Path.Hops, want.Path.Hops) {
		return fmt.Errorf("served %v (cost %v), a fresh engine answers %v (cost %v, degraded %v)",
			got.Path, got.Path.DecisionCost, want.Path, want.Path.DecisionCost, want.Degraded)
	}
	return nil
}

// freshEngine builds an engine from scratch over caps — states from a full
// state.Distribute — and replays the unavailable set onto it.
func freshEngine(t testing.TB, topo *hfc.Topology, caps []svc.CapabilitySet, unavailable []int) (*serve.Engine, []state.NodeState) {
	t.Helper()
	states, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	eng, err := serve.NewEngine(topo, caps, states, serve.Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, node := range unavailable {
		if err := eng.SetUnavailable(node, true); err != nil {
			t.Fatalf("SetUnavailable(%d): %v", node, err)
		}
	}
	return eng, states
}

// Operation codes of FuzzOpSequence, one input byte each; the argument bytes
// that follow are listed beside each.
const (
	opUpdate            = iota // node, then a 12-bit set over the catalog (two bytes)
	opToggleAvailable          // node: down if it is up, else up
	opInvalidateCluster        // cluster
	opInvalidateAll            //
	opResolve                  // pool index (two bytes)
	opResolveBatch             // the whole pool in one batch
	numOps
)

// opWorld is what every FuzzOpSequence input starts from: the 120-proxy
// overlay TestCachedEqualsFreshAfterEveryUpdate runs on, its deployment,
// and a pool of requests.
type opWorld struct {
	topo   *hfc.Topology
	caps   []svc.CapabilitySet
	states []state.NodeState
	cat    *svc.Catalog
	pool   []svc.Request
}

// opRun is one input's run: the engine under test and the reference, rebuilt
// after every operation that changes the deployment or the availability.
type opRun struct {
	t    *testing.T
	w    *opWorld
	eng  *serve.Engine
	caps []svc.CapabilitySet
	ref  *serve.Engine
}

// rebuild replaces the reference and holds the engine's states to a fresh
// distribution over its deployment.
func (r *opRun) rebuild(step int) {
	r.caps = r.eng.Capabilities()
	var states []state.NodeState
	r.ref, states = freshEngine(r.t, r.w.topo, r.caps, r.eng.UnavailableNodes())
	if !reflect.DeepEqual(r.eng.States(), states) {
		r.t.Fatalf("step %d: the engine's states are not a fresh Distribute over its deployment", step)
	}
}

// step applies the operation at the head of data and reports how many bytes
// it consumed.
func (r *opRun) step(i int, data []byte) int {
	arg := func(j int) int {
		if j < len(data) {
			return int(data[j])
		}
		return 0
	}
	n := r.w.topo.N()
	switch int(data[0]) % numOps {
	case opUpdate:
		node, bits := arg(1)%n, arg(2)|arg(3)<<8
		set := svc.NewCapabilitySet()
		for s := 0; s < r.w.cat.Len(); s++ {
			if bits&(1<<s) != 0 {
				set.Add(r.w.cat.At(s))
			}
		}
		if err := r.eng.UpdateCapability(node, set); err != nil {
			r.t.Fatalf("step %d: UpdateCapability(%d, %v): %v", i, node, set, err)
		}
		r.rebuild(i)
		return 4
	case opToggleAvailable:
		node := arg(1) % n
		if err := r.eng.SetUnavailable(node, !r.eng.IsUnavailable(node)); err != nil {
			r.t.Fatalf("step %d: SetUnavailable(%d): %v", i, node, err)
		}
		r.rebuild(i)
		return 2
	case opInvalidateCluster:
		r.eng.InvalidateCluster(arg(1) % r.w.topo.NumClusters())
		return 2
	case opInvalidateAll:
		r.eng.InvalidateAll()
		return 1
	case opResolve:
		req := r.w.pool[(arg(1)|arg(2)<<8)%len(r.w.pool)]
		got, gotErr := r.eng.ResolveDetailed(req)
		r.check(i, req, got, gotErr)
		return 3
	default: // opResolveBatch
		results, errs := r.eng.ResolveBatchDetailed(r.w.pool, 2)
		for j, req := range r.w.pool {
			r.check(i, req, results[j], errs[j])
		}
		return 1
	}
}

func (r *opRun) check(step int, req svc.Request, got *routing.Result, gotErr error) {
	want, wantErr := r.ref.ResolveDetailed(req)
	if err := checkAnswer(r.eng, r.caps, req, got, gotErr, want, wantErr); err != nil {
		r.t.Fatalf("step %d, request %d->%d %v: %v", step, req.Source, req.Dest, req.SG, err)
	}
}

// FuzzOpSequence drives one engine through a sequence of operations decoded
// from the input — capability updates, availability changes, cluster and
// engine-wide invalidations, single resolves and whole-pool batches — and
// after every step holds it to an engine built from scratch over the same
// deployment and availability (checkAnswer), and its states to a fresh
// state.Distribute. The seed corpus reproduces the stale-route bugs the cache
// rules were written against: each fails with its rule reverted.
func FuzzOpSequence(f *testing.F) {
	fw, eng, caps := buildEngine(f, 21, 120, serve.Config{})
	cat, err := svc.NewCatalog(12)
	if err != nil {
		f.Fatalf("NewCatalog: %v", err)
	}
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(231)), caps, 2, 5)
	if err != nil {
		f.Fatalf("NewRequestGenerator: %v", err)
	}
	w := &opWorld{topo: eng.Topology(), caps: caps, states: fw.States(), cat: cat, pool: make([]svc.Request, 300)}
	for i := range w.pool {
		if w.pool[i], err = gen.Next(); err != nil {
			f.Fatalf("Next: %v", err)
		}
	}
	for _, seed := range [][]byte{
		// Every operation once.
		{opResolveBatch, opUpdate, 7, 0x0f, 0x00, opResolve, 1, 0, opToggleAvailable, 3, opResolveBatch,
			opInvalidateCluster, 2, opResolve, 1, 0, opInvalidateAll, opToggleAvailable, 3, opResolveBatch},
		// Proxy 0 takes up {s3, s7, s10} and its cluster's aggregate gains a
		// service: a cached route that avoids the cluster but asks for that
		// service is stale. Staling the cluster alone serves it as fresh.
		{opResolveBatch, opUpdate, 0, 0x88, 0x04, opResolveBatch},
		// Proxy 52 goes down and its cluster re-elects a border pair: every
		// request's cluster-level search crosses there. Staling the cluster
		// alone serves a route that avoids it as fresh.
		{opResolveBatch, opToggleAvailable, 52, opResolveBatch},
		// The same on the way back up: proxy 101 rejoins and wins a pair back.
		{opToggleAvailable, 101, opResolveBatch, opToggleAvailable, 101, opResolveBatch},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip() // long sequences repeat what short ones reach
		}
		eng, err := serve.NewEngine(w.topo, w.caps, w.states, serve.Config{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		r := &opRun{t: t, w: w, eng: eng}
		r.rebuild(-1)
		for i := 0; len(data) > 0; i++ {
			data = data[min(r.step(i, data), len(data)):]
		}
	})
}
