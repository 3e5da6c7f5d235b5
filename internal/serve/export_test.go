package serve

import (
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// States exposes the engine's current per-proxy states to the tests.
func (e *Engine) States() []state.NodeState {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.states
}

// DegradedUnderKey is the last-known-good lookup resolveKeyed performs for an
// unreachable destination, with the key chosen by the caller — the way a test
// puts two graphs under one fingerprint.
func (e *Engine) DegradedUnderKey(key routing.CacheKey, sg *svc.Graph) *routing.Result {
	return e.degradedResult(key, sg)
}
