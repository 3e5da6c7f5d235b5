package netsim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"hfc/internal/graph"
)

// ErrNoBandwidthModel is returned when the underlying topology carries no
// bandwidth graph (generators other than transit-stub).
var ErrNoBandwidthModel = errors.New("netsim: topology has no bandwidth model")

// bwState lazily caches per-source shortest-path trees for bottleneck
// queries. Only the QoS extension pays this cost.
type bwState struct {
	mu    sync.Mutex
	trees map[int]*graph.PathResult // guarded by mu
}

// Bottleneck returns the bandwidth available between physical nodes u and
// v: the minimum link capacity along the delay-shortest route — the path
// the network actually carries the stream over. Parallel links between a
// node pair contribute their best capacity. Bottleneck(u, u) is +Inf.
func (n *Network) Bottleneck(u, v int) (float64, error) {
	if n.topo.BandwidthGraph == nil {
		return 0, ErrNoBandwidthModel
	}
	if u < 0 || u >= n.N() || v < 0 || v >= n.N() {
		return 0, fmt.Errorf("netsim: bottleneck query (%d,%d) out of range [0,%d)", u, v, n.N())
	}
	if u == v {
		return math.Inf(1), nil
	}
	tree, err := n.spTree(u)
	if err != nil {
		return 0, err
	}
	path, err := tree.PathTo(v)
	if err != nil {
		return 0, fmt.Errorf("netsim: %w", err)
	}
	bottleneck := math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		bw := n.topo.LinkBandwidth(path[i], path[i+1])
		if bw <= 0 {
			return 0, fmt.Errorf("netsim: no bandwidth recorded for link (%d,%d)", path[i], path[i+1])
		}
		if bw < bottleneck {
			bottleneck = bw
		}
	}
	return bottleneck, nil
}

// spTree returns (building and caching on first use) the delay
// shortest-path tree rooted at source.
func (n *Network) spTree(source int) (*graph.PathResult, error) {
	n.bw.mu.Lock()
	defer n.bw.mu.Unlock()
	if n.bw.trees == nil {
		n.bw.trees = make(map[int]*graph.PathResult)
	}
	if t, ok := n.bw.trees[source]; ok {
		return t, nil
	}
	t, err := n.csr.Dijkstra(source)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	n.bw.trees[source] = t
	return t, nil
}
