package overlay

import (
	"sync"
	"testing"
	"time"
)

// TestStopConcurrentWithRoundBurst is the shutdown-ordering regression
// test: Stop must be safe to call while protocol triggers and route
// requests are still being injected from other goroutines. The invariant
// chain under test (enforced statically by hfcvet's lockscope and guardedby
// analyzers, and dynamically here under -race) is:
//
//  1. Stop flips accepting under sendMu before waiting, so no sender can
//     slip past the check and Add to inflight after the Wait started;
//  2. inboxes are closed only after inflight drains, so no send can hit a
//     closed channel (a panic, not an error);
//  3. sends racing or following Stop are counted DroppedAfterStop no-ops.
//
// Routes racing the shutdown may fail with a timeout; that is a clean
// rejection and acceptable. What the test forbids is a panic (send on
// closed channel) or a race report.
func TestStopConcurrentWithRoundBurst(t *testing.T) {
	for iter := 0; iter < 6; iter++ {
		topo, caps := buildFixture(t, int64(100+iter))
		cfg := Config{
			RouteTimeout: 50 * time.Millisecond,
			RPCTimeout:   20 * time.Millisecond,
			RPCRetries:   -1, // keep racing routes from stretching the test
		}
		sys, err := New(topo, caps, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// Small mailboxes, so the burst also sheds on backpressure.
		sys.drv = newMailboxDriver(sys, 16)
		if err := sys.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		req, err := newRequest(t, caps, int64(300+iter))
		if err != nil {
			t.Fatalf("newRequest: %v", err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					sys.TriggerStateRound()
					if i%10 == g {
						// Exercise the request path too; racing Stop it may
						// time out, but it must never panic.
						_, _ = sys.Route(req)
					}
				}
			}(g)
		}
		// One goroutine races Stop against the burst.
		wg.Add(1)
		var stopErr error
		go func() {
			defer wg.Done()
			<-start
			stopErr = sys.Stop()
		}()
		close(start)
		wg.Wait()

		if stopErr != nil {
			t.Fatalf("iter %d: Stop: %v", iter, stopErr)
		}
		if err := sys.Stop(); err == nil {
			t.Fatalf("iter %d: second Stop succeeded", iter)
		}
		// Injections after full shutdown must be counted no-ops.
		sys.TriggerStateRound()
		if got := sys.FaultCounters().DroppedAfterStop; got == 0 {
			t.Errorf("iter %d: post-stop trigger not counted as DroppedAfterStop", iter)
		}
	}
}
