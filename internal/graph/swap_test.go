package graph_test

import (
	"testing"

	"hfc/internal/env"
	"hfc/internal/graph"
)

// TestCSRTreesMatchPointerTreesOnTable1 is the differential check for the
// swap of mesh.Build's routing tables and netsim's bottleneck trees from
// the pointer-graph Dijkstra (now the oracle in oracle_test.go) to the CSR
// run: on the two graphs those callers hand it — the Table 1 row 1 physical
// topology and the mesh over its proxies, seed 42 — the trees agree on
// PARENTS from every source, so no mesh relay sequence and no Bottleneck
// path moved. Link delays and embedded distances are continuous draws, so
// no exact tie is expected; the two heaps break one differently, and if one
// appears this prints the tied edges — the CSR's (key, vertex id) rule
// (DESIGN §13.1) is then what the tables follow.
func TestCSRTreesMatchPointerTreesOnTable1(t *testing.T) {
	e, err := env.Build(env.Table1(42)[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for name, g := range map[string]*graph.Graph{
		"physical topology": e.Net.Topology().Graph,
		"mesh":              e.Mesh.Graph,
	} {
		c, err := graph.NewCSR(g)
		if err != nil {
			t.Fatalf("%s: NewCSR: %v", name, err)
		}
		for s := 0; s < g.N(); s++ {
			got, err := c.Dijkstra(s)
			if err != nil {
				t.Fatalf("%s: CSR Dijkstra(%d): %v", name, s, err)
			}
			want, err := g.Dijkstra(s)
			if err != nil {
				t.Fatalf("%s: pointer Dijkstra(%d): %v", name, s, err)
			}
			for v := range want.Parent {
				//hfcvet:ignore floatdist the two runs must agree bit-for-bit
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("%s: source %d: dist[%d] = %v from CSR, %v from the pointer graph", name, s, v, got.Dist[v], want.Dist[v])
				}
				if pc, pp := got.Parent[v], want.Parent[v]; pc != pp {
					t.Errorf("%s: source %d: vertex %d at distance %v is reached through the tied edges %d→%d (CSR) and %d→%d (pointer graph)",
						name, s, v, want.Dist[v], pc, v, pp, v)
				}
			}
		}
	}
}
