// Package mesh builds the paper's single-level baseline overlay (§6.2): a
// "regular mesh" in which every proxy links to its 1–4 nearest neighbours
// plus 1–2 randomly chosen farther nodes (the long links that keep the
// topology connected), with link lengths taken from the embedded coordinate
// map. It also provides the all-pairs routing tables mesh-based service
// routing needs: every node holds global state, and consecutive services
// are connected along mesh shortest paths through relay proxies.
package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"hfc/internal/coords"
	"hfc/internal/graph"
	"hfc/internal/par"
)

// Config controls mesh construction, mirroring §6.2's construction rule.
type Config struct {
	// MinNear and MaxNear bound the per-proxy count of nearest-neighbour
	// links (paper: 1–4).
	MinNear, MaxNear int
	// MinFar and MaxFar bound the per-proxy count of random long links
	// (paper: 1–2).
	MinFar, MaxFar int
}

// DefaultConfig returns the paper's 1–4 nearest plus 1–2 random settings.
func DefaultConfig() Config {
	return Config{MinNear: 1, MaxNear: 4, MinFar: 1, MaxFar: 2}
}

func (c Config) validate(n int) error {
	switch {
	case c.MinNear < 1 || c.MaxNear < c.MinNear:
		return fmt.Errorf("mesh: invalid nearest-neighbour range [%d,%d]", c.MinNear, c.MaxNear)
	case c.MinFar < 0 || c.MaxFar < c.MinFar:
		return fmt.Errorf("mesh: invalid far-link range [%d,%d]", c.MinFar, c.MaxFar)
	case n < 2:
		return fmt.Errorf("mesh: need at least 2 nodes, got %d", n)
	case c.MaxNear >= n:
		return fmt.Errorf("mesh: up to %d nearest neighbours for %d nodes", c.MaxNear, n)
	}
	return nil
}

// Mesh is a constructed overlay mesh plus its routing tables.
type Mesh struct {
	// Graph is the overlay link structure; weights are embedded distances.
	Graph *graph.Graph
	// routes[s] holds the shortest-path tree rooted at s.
	routes []*graph.PathResult
}

// Build constructs a connected mesh over the coordinate map's nodes. Each
// node draws a nearest-link count in [MinNear, MaxNear] and a far-link
// count in [MinFar, MaxFar]; if the result is disconnected, the closest
// cross-component pairs are linked (rare, and keeps the construction honest
// — the paper's far links exist precisely "to make the topology
// connected").
func Build(rng *rand.Rand, cmap *coords.Map, cfg Config) (*Mesh, error) {
	if rng == nil {
		return nil, errors.New("mesh: nil rng")
	}
	if cmap == nil {
		return nil, errors.New("mesh: nil coordinate map")
	}
	n := cmap.N()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}

	g := graph.New(n, false)
	type key [2]int
	present := make(map[key]bool)
	addLink := func(u, v int) error {
		if u == v {
			return nil
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if present[key{a, b}] {
			return nil
		}
		present[key{a, b}] = true
		if err := g.AddEdge(u, v, cmap.Dist(u, v)); err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
		return nil
	}

	// Nearest-neighbour links.
	order := make([]int, n)
	for u := 0; u < n; u++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := cmap.Dist(u, order[a]), cmap.Dist(u, order[b])
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
		count := cfg.MinNear + rng.Intn(cfg.MaxNear-cfg.MinNear+1)
		added := 0
		for _, v := range order {
			if v == u {
				continue
			}
			if err := addLink(u, v); err != nil {
				return nil, err
			}
			added++
			if added == count {
				break
			}
		}
	}

	// Random far links.
	for u := 0; u < n; u++ {
		count := cfg.MinFar
		if cfg.MaxFar > cfg.MinFar {
			count += rng.Intn(cfg.MaxFar - cfg.MinFar + 1)
		}
		for i := 0; i < count; i++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			if err := addLink(u, v); err != nil {
				return nil, err
			}
		}
	}

	// Repair connectivity if needed by joining the closest pairs across
	// components.
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			break
		}
		bestU, bestV := -1, -1
		bestD := 0.0
		for _, u := range comps[0] {
			for _, c := range comps[1:] {
				for _, v := range c {
					if d := cmap.Dist(u, v); bestU == -1 || d < bestD {
						bestU, bestV, bestD = u, v, d
					}
				}
			}
		}
		if err := addLink(bestU, bestV); err != nil {
			return nil, err
		}
	}

	// Routing tables: one rng-free Dijkstra per source, fanned out (link
	// construction above draws from rng, so it stays on this goroutine).
	csr, err := graph.NewCSR(g)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	m := &Mesh{Graph: g, routes: make([]*graph.PathResult, n)}
	if err := par.ForErr(n, func(s int) error {
		r, err := csr.Dijkstra(s)
		if err != nil {
			return fmt.Errorf("mesh: routing table for %d: %w", s, err)
		}
		m.routes[s] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// N returns the number of overlay nodes.
func (m *Mesh) N() int { return m.Graph.N() }

// Dist returns the mesh shortest-path distance between two overlay nodes in
// the embedded metric — the decision-time distance mesh routing uses.
func (m *Mesh) Dist(u, v int) float64 { return m.routes[u].Dist[v] }

// Path returns the overlay node sequence of the mesh shortest path from u
// to v, endpoints included: the relay proxies a mesh service path must
// traverse between two consecutive services.
func (m *Mesh) Path(u, v int) ([]int, error) {
	p, err := m.routes[u].PathTo(v)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	return p, nil
}

// AvgDegree returns the mean number of mesh links per node.
func (m *Mesh) AvgDegree() float64 {
	return 2 * float64(m.Graph.M()) / float64(m.N())
}
