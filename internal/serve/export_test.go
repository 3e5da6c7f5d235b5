package serve

import "hfc/internal/state"

// States exposes the engine's current per-proxy states to the tests.
func (e *Engine) States() []state.NodeState {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.states
}
