package svc

import (
	"errors"
	"fmt"
)

// This file holds the map-based Graph.Validate the stack-scratch one
// replaced on the production path, body text unchanged. It is the oracle
// FuzzGraphFrontMatter compares against, error string for error string.
// Nothing outside _test.go calls it.

// validateOracle checks structural sanity: at least one service, unique
// non-empty names, in-range acyclic edges.
func validateOracle(g *Graph) error {
	if g == nil {
		return errors.New("svc: nil service graph")
	}
	n := len(g.Services)
	if n == 0 {
		return errors.New("svc: empty service graph")
	}
	seen := make(map[Service]bool, n)
	for i, s := range g.Services {
		if s == "" {
			return fmt.Errorf("svc: service %d has empty name", i)
		}
		if seen[s] {
			return fmt.Errorf("svc: duplicate service %q in graph", s)
		}
		seen[s] = true
	}
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("svc: edge %v out of range [0,%d)", e, n)
		}
		if e[0] == e[1] {
			return fmt.Errorf("svc: self-loop on service %q", g.Services[e[0]])
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	// Kahn's algorithm detects cycles.
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	visited := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		visited++
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if visited != n {
		return errors.New("svc: service graph contains a cycle")
	}
	return nil
}
