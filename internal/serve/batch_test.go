package serve_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/svc"
)

// batchStream draws unique requests and tiles them into a stream with heavy
// duplication plus two invalid entries — the shape ResolveBatch is built to
// amortize.
func batchStream(t *testing.T, caps []svc.CapabilitySet, seed int64, unique, total int) []svc.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	uniq := make([]svc.Request, unique)
	for i := range uniq {
		if uniq[i], err = gen.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	stream := make([]svc.Request, total)
	for i := range stream {
		stream[i] = uniq[i%unique]
	}
	// Invalid requests must fail individually without disturbing neighbours.
	stream[total/3] = svc.Request{Source: -1, Dest: 0, SG: uniq[0].SG}
	stream[2*total/3] = svc.Request{Source: 0, Dest: 1 << 20, SG: uniq[0].SG}
	return stream
}

// TestResolveBatchMatchesLooped is the batch/looped equivalence property:
// across churn rounds (capability updates and availability flips applied
// identically to two same-seed engines between rounds), ResolveBatchDetailed
// returns exactly what a loop over ResolveDetailed returns — same per-request
// errors and bit-identical paths — at several worker counts.
func TestResolveBatchMatchesLooped(t *testing.T) {
	_, loopEng, caps := buildEngine(t, 71, 40, serve.Config{})
	_, batchEng, _ := buildEngine(t, 71, 40, serve.Config{})
	stream := batchStream(t, caps, 72, 16, 64)

	churn := []func(t *testing.T, e *serve.Engine){
		func(t *testing.T, e *serve.Engine) {},
		func(t *testing.T, e *serve.Engine) {
			if err := e.SetUnavailable(3, true); err != nil {
				t.Fatalf("SetUnavailable: %v", err)
			}
		},
		func(t *testing.T, e *serve.Engine) {
			if err := e.UpdateCapability(5, e.Capabilities()[7]); err != nil {
				t.Fatalf("UpdateCapability: %v", err)
			}
			if err := e.SetUnavailable(3, false); err != nil {
				t.Fatalf("SetUnavailable: %v", err)
			}
		},
	}
	for round, mutate := range churn {
		mutate(t, loopEng)
		mutate(t, batchEng)
		// Serial (1 or less, however it is spelled) and a pool of 4.
		for _, workers := range []int{0, 1, 4, -1} {
			wantRes := make([]*routing.Result, len(stream))
			wantErr := make([]error, len(stream))
			for i, req := range stream {
				wantRes[i], wantErr[i] = loopEng.ResolveDetailed(req)
			}
			gotRes, gotErr := batchEng.ResolveBatchDetailed(stream, workers)
			if len(gotRes) != len(stream) || len(gotErr) != len(stream) {
				t.Fatalf("round %d workers %d: got %d results / %d errors for %d requests",
					round, workers, len(gotRes), len(gotErr), len(stream))
			}
			for i := range stream {
				if (gotErr[i] == nil) != (wantErr[i] == nil) {
					t.Fatalf("round %d workers %d req %d: batch err %v, looped err %v",
						round, workers, i, gotErr[i], wantErr[i])
				}
				if gotErr[i] != nil {
					if gotErr[i].Error() != wantErr[i].Error() {
						t.Fatalf("round %d workers %d req %d: batch err %q, looped err %q",
							round, workers, i, gotErr[i], wantErr[i])
					}
					continue
				}
				got, want := gotRes[i], wantRes[i]
				if got.Path.DecisionCost != want.Path.DecisionCost {
					t.Fatalf("round %d workers %d req %d: batch cost %v, looped cost %v (must be bit-identical)",
						round, workers, i, got.Path.DecisionCost, want.Path.DecisionCost)
				}
				if !reflect.DeepEqual(got.Path.Hops, want.Path.Hops) {
					t.Fatalf("round %d workers %d req %d: batch hops %v, looped hops %v",
						round, workers, i, got.Path.Hops, want.Path.Hops)
				}
				if got.CSPCost != want.CSPCost {
					t.Fatalf("round %d workers %d req %d: batch CSP cost %v, looped CSP cost %v (must be bit-identical)",
						round, workers, i, got.CSPCost, want.CSPCost)
				}
			}
		}
	}
}

// TestResolveBatchSharesDuplicates checks the in-batch amortization
// contract: positions asking for the same request get the same shared
// read-only result, resolved once.
func TestResolveBatchSharesDuplicates(t *testing.T) {
	_, eng, caps := buildEngine(t, 81, 30, serve.Config{})
	rng := rand.New(rand.NewSource(82))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	batch := []svc.Request{req, req, req, req}
	results, errs := eng.ResolveBatchDetailed(batch, 2)
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d: duplicate did not share the batch result", i)
		}
	}
	if got := eng.Stats().Resolutions; got != 1 {
		t.Fatalf("batch of 4 duplicates performed %d resolutions, want 1", got)
	}
}

// TestResolveBatchConcurrentChurn hammers batches from several goroutines
// while availability flips and capability updates race them. Run under
// -race; every answered request must still be a valid path or a clean
// error.
func TestResolveBatchConcurrentChurn(t *testing.T) {
	_, eng, caps := buildEngine(t, 91, 30, serve.Config{})
	stream := batchStream(t, caps, 92, 8, 32)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		flip := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flip = !flip
			if err := eng.SetUnavailable(i%10, flip); err != nil {
				t.Errorf("SetUnavailable: %v", err)
				return
			}
			if i%7 == 0 {
				if err := eng.UpdateCapability(11, eng.Capabilities()[12]); err != nil {
					t.Errorf("UpdateCapability: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				results, errs := eng.ResolveBatchDetailed(stream, 2)
				for i := range stream {
					if errs[i] == nil && results[i].Path == nil {
						t.Errorf("pass %d req %d: nil path without error", pass, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}
