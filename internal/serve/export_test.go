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

// ResolveAdmittedAt is the miss path of a resolve that captured the cache
// version token at and only now gets to compute and store — the way a test
// puts an invalidation between the capture and the Put.
func (e *Engine) ResolveAdmittedAt(req svc.Request, version uint64) (*routing.Result, error) {
	return e.compute(req, routing.NewCacheKey(req.Source, req.Dest, req.SG), version)
}

// CacheVersion is the token resolveKeyed captures before it computes.
func (e *Engine) CacheVersion() uint64 { return e.cache.Version() }

// CachedRoutes is how many routes the engine holds, fresh and last-known-good.
func (e *Engine) CachedRoutes() int { return e.cache.Len() }

// IndexFor is the provider index a resolve to dest would use right now.
func (e *Engine) IndexFor(dest int) *routing.ProviderIndex {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.indexes.For(dest)
}

// IndexHalves is how many provider-index halves the engine has cached.
func (e *Engine) IndexHalves() (local, clusters int) { return e.indexes.Len() }
