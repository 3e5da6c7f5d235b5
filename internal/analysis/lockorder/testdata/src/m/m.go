// Fixture m: manifest enforcement, driven by testdata/manifest.txt via
// the -manifest flag (the test also sets -packages=m so the completeness
// check applies here). No cycle exists — the contract violation reports
// anyway, the unranked mutex is flagged at its declaration, and the class
// the manifest ranks but nothing declares any more at the package clause.
package m // want `lock m\.M\.gone is ranked in the lock-order manifest .* but no longer declared`

import "sync"

type M struct {
	first  sync.Mutex
	second sync.Mutex
	extra  sync.Mutex // want `lock m\.M\.extra is not in the lock-order manifest`
}

func (m *M) forward() {
	m.first.Lock()
	m.first.Unlock()
	m.second.Lock()
	m.second.Unlock()
}

func (m *M) backward() {
	m.second.Lock()
	defer m.second.Unlock()
	m.first.Lock() // want `lock order contract violation: m\.M\.first \(rank 1\) acquired while holding m\.M\.second \(rank 2\)`
	m.first.Unlock()
}
