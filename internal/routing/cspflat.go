package routing

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// This file is the §5.1 cluster-level search (steps 1–2), the only
// implementation on the production path. Labels live in the route scratch's
// dense arrays and border pairs and coordinates come from the one DenseTables
// route loaded, in every mode. The map-based search it replaced is the
// oracle in oracle_test.go; the two agree on CSP, cost bits and error
// strings in every relax mode — same candidate iteration order, same
// strict-< improvements, same floating-point evaluation order.

// cspScratch is the reusable arena of one flat cluster-level search, the
// search half of a routeScratch.
type cspScratch struct {
	cands   [][]int // candidate clusters per SG vertex (shared or candBuf-backed)
	candBuf []int   // backing storage for admissibility-filtered lists

	indeg, outdeg  []int32
	queue, order   []int32
	sources, sinks []int32
	headOff        []int32 // SG edges grouped by tail, CSR-packed
	heads          []int32

	// Flat label tables over (SG vertex, cluster) slots: slot = v*K + c in
	// the greedy modes (stride = K), the exact-mode layout below otherwise.
	// dist +Inf marks "no label"; entry is the border proxy the path
	// entered the cluster through (-1 when inside since the source);
	// parV/parC identify the predecessor label (-1 for virtual source).
	dist       []float64
	entry      []int32
	parV, parC []int32

	// RelaxExact only. Its state is (SG vertex, cluster, entry border), so
	// each (v, c) owns a run of entry slots instead of one: slot =
	// v*stride + entOff[c] + i, where entNode[entOff[c]+i] is the run's
	// i-th entry — -1 first, then c's border proxies ascending — and
	// stride = entOff[K]. parE is the predecessor's position in its run.
	exact   bool
	stride  int
	entOff  []int32
	entNode []int32
	parE    []int32

	// The internal entry-border→exit-border distance of the label being
	// relaxed, by exit border: a cluster reaches its three dozen neighbours
	// through some six border proxies, and the entry is the label's. memoAt[b]
	// == memoEpoch marks memoVal[b] as this label's; the epoch moves per label.
	memoEpoch uint32
	memoAt    []uint32
	memoVal   []float64
}

// nextLabel opens the memo of a new label over a border table of n nodes.
func (sc *cspScratch) nextLabel(n int) {
	if len(sc.memoAt) < n || sc.memoEpoch == math.MaxUint32 {
		sc.memoAt, sc.memoVal, sc.memoEpoch = make([]uint32, n), make([]float64, n), 0
	}
	sc.memoEpoch++
}

// layoutExact fills entOff/entNode from the border table: a cluster's
// borders are its proxies toward every other cluster — the set the oracle
// lists through View.Border.
func (sc *cspScratch) layoutExact(dt *hfc.DenseTables) {
	k := dt.K
	sc.entOff = grow(sc.entOff, k+1)
	sc.entNode = sc.entNode[:0]
	for c := 0; c < k; c++ {
		sc.entOff[c] = int32(len(sc.entNode))
		sc.entNode = append(sc.entNode, -1)
		first := len(sc.entNode)
		for other := 0; other < k; other++ {
			if inC := dt.BorderInA[c*k+other]; inC >= 0 {
				sc.entNode = append(sc.entNode, inC)
			}
		}
		borders := sc.entNode[first:]
		slices.Sort(borders)
		sc.entNode = sc.entNode[:first+len(slices.Compact(borders))]
	}
	sc.entOff[k] = int32(len(sc.entNode))
	sc.stride = len(sc.entNode)
}

// run returns the slots holding (v, c)'s labels: the one slot v*K + c in
// the greedy modes, c's run of entry slots in exact mode.
func (sc *cspScratch) run(v, c int) (lo, hi int) {
	if !sc.exact {
		return v*sc.stride + c, v*sc.stride + c + 1
	}
	return v*sc.stride + int(sc.entOff[c]), v*sc.stride + int(sc.entOff[c+1])
}

// slot returns where the label of (v, c) entered through entry lives. In
// exact mode an entry that is not one of c's listed borders has no slot
// (-1): no later step could read such a label back, so it is dropped.
func (sc *cspScratch) slot(v, c int, entry int32) int {
	if !sc.exact {
		return v*sc.stride + c
	}
	for i := sc.entOff[c]; i < sc.entOff[c+1]; i++ {
		if sc.entNode[i] == entry {
			return v*sc.stride + int(i)
		}
	}
	return -1
}

// parent returns the predecessor of the label at slot s as (SG vertex,
// cluster, position in that pair's run); the vertex is -1 at the virtual
// source.
func (sc *cspScratch) parent(s int) (v, c, i int) {
	if sc.exact {
		i = int(sc.parE[s])
	}
	return int(sc.parV[s]), int(sc.parC[s]), i
}

// errClusterRange reports a cluster id the view's dense tables do not
// cover: the view and the state (or the source's answer) disagree on K.
func errClusterRange(c, k int) error {
	return fmt.Errorf("routing: cluster %d is outside the view's %d clusters", c, k)
}

// crossingFlat reads the oriented border pair and external link length
// between distinct clusters a and b, both inside the table — exactly what
// the oracle computes via View.Border + View.Dist.
//
//hfc:hotpath budget=0
func crossingFlat(dt *hfc.DenseTables, a, b int) (inA, inB int, ext float64) {
	return int(dt.BorderInA[a*dt.K+b]), int(dt.BorderInA[b*dt.K+a]), dt.Ext[a*dt.K+b]
}

// distFlat is View.Dist on the table route loaded, falling back to the
// view's own lookup — and so to its error — for ids the table does not
// cover.
func (r *HierarchicalRouter) distFlat(dt *hfc.DenseTables, u, w int) (float64, error) {
	if u >= 0 && u < len(dt.Pts) && w >= 0 && w < len(dt.Pts) {
		pu, pw := dt.Pts[u], dt.Pts[w]
		if pu != nil && pw != nil {
			return coords.Dist(pu, pw), nil
		}
	}
	return r.View.Dist(u, w)
}

// internalFlat mirrors the generic internalDist: the entry-border→exit
// distance inside a cluster, 0 when the entry is unknown, they coincide,
// or the mode ignores internal distances.
func (r *HierarchicalRouter) internalFlat(dt *hfc.DenseTables, externalOnly bool, entry int32, exit int) (float64, error) {
	if entry == -1 || int(entry) == exit || externalOnly {
		return 0, nil
	}
	return r.distFlat(dt, int(entry), exit)
}

// internalMemo is internalFlat for the label sc.nextLabel opened, computed
// once per exit border. Exits outside the memo (and errors) take the direct
// call every time.
func (r *HierarchicalRouter) internalMemo(sc *cspScratch, dt *hfc.DenseTables, externalOnly bool, entry int32, exit int) (float64, error) {
	if exit < 0 || exit >= len(sc.memoAt) {
		return r.internalFlat(dt, externalOnly, entry, exit)
	}
	if sc.memoAt[exit] == sc.memoEpoch {
		return sc.memoVal[exit], nil
	}
	d, err := r.internalFlat(dt, externalOnly, entry, exit)
	if err == nil {
		sc.memoAt[exit], sc.memoVal[exit] = sc.memoEpoch, d
	}
	return d, err
}

// clusterLevelPath maps the request onto clusters (§5.1 steps 1–2): a DAG
// shortest-path search over (SG vertex, cluster) labels — (SG vertex,
// cluster, entry border) labels in exact mode — over dt, the border table
// route loaded. Every cluster id it meets must lie inside dt. It leaves the
// CSP in rs.csp and returns its cost; in steady state it allocates nothing.
//
//hfc:hotpath budget=0
func (r *HierarchicalRouter) clusterLevelPath(dt *hfc.DenseTables, req svc.Request, srcCluster, destCluster int, rs *routeScratch) (float64, error) {
	k := dt.K
	if srcCluster < 0 || srcCluster >= k {
		return 0, errClusterRange(srcCluster, k)
	}
	if destCluster < 0 || destCluster >= k {
		return 0, errClusterRange(destCluster, k)
	}
	externalOnly := r.mode() == RelaxExternalOnly
	sg := req.SG
	nv := sg.Len()
	sc := &rs.search

	// Candidate clusters per SG vertex, from SCT_C (optionally narrowed
	// by the QoS admissibility hook), matching the generic path's order.
	sc.cands = grow(sc.cands, nv)
	sc.candBuf = sc.candBuf[:0]
	filtered := 0 // vertices whose lists live in candBuf, by position
	for v := 0; v < nv; v++ {
		var all []int
		if r.Index != nil {
			all = r.Index.ClustersProviding(sg.Services[v])
		} else {
			all = r.State.ClustersProviding(sg.Services[v])
		}
		if r.ClusterAdmissible != nil {
			start := len(sc.candBuf)
			for _, c := range all {
				if r.ClusterAdmissible(sg.Services[v], c) {
					//hfcvet:ignore hotalloc candBuf retains capacity across pooled runs; steady-state append never grows
					sc.candBuf = append(sc.candBuf, c)
				}
			}
			sc.cands[v] = sc.candBuf[start:len(sc.candBuf):len(sc.candBuf)]
			filtered++
		} else {
			sc.cands[v] = all
		}
		if len(sc.cands[v]) == 0 {
			//hfcvet:ignore hotalloc cold no-provider error path
			return 0, fmt.Errorf("routing: service %q: %w", sg.Services[v], ErrNoProviders)
		}
		for _, c := range sc.cands[v] {
			if c < 0 || c >= k {
				return 0, errClusterRange(c, k)
			}
		}
	}
	// candBuf may have been re-sliced by appends after earlier vertices
	// captured windows into it; rebuild windows when any growth happened.
	if filtered > 0 {
		off := 0
		for v := 0; v < nv; v++ {
			if r.ClusterAdmissible == nil {
				continue
			}
			n := len(sc.cands[v])
			sc.cands[v] = sc.candBuf[off : off+n : off+n]
			off += n
		}
	}

	// SG degrees, CSR-packed edges by tail, sources/sinks, Kahn order —
	// ascending-vertex everywhere, matching svc.Graph.Sources/Sinks and the
	// oracle's queue-based topological order.
	sc.indeg = grow(sc.indeg, nv)
	sc.outdeg = grow(sc.outdeg, nv)
	sc.headOff = grow(sc.headOff, nv+1)
	sc.heads = grow(sc.heads, len(sg.Edges))
	for v := 0; v < nv; v++ {
		sc.indeg[v] = 0
		sc.outdeg[v] = 0
	}
	for _, e := range sg.Edges {
		sc.outdeg[e[0]]++
		sc.indeg[e[1]]++
	}
	// CSR-pack edges by tail: store end offsets, count each bucket down
	// while filling, then reverse each bucket so heads keep sg.Edges
	// order per tail (the countdown fills back-to-front).
	off := int32(0)
	for v := 0; v < nv; v++ {
		off += sc.outdeg[v]
		sc.headOff[v] = off
	}
	sc.headOff[nv] = off
	for _, e := range sg.Edges {
		sc.headOff[e[0]]--
		sc.heads[sc.headOff[e[0]]] = int32(e[1])
	}
	for v := 0; v < nv; v++ {
		for i, j := sc.headOff[v], sc.headOff[v+1]-1; i < j; i, j = i+1, j-1 {
			sc.heads[i], sc.heads[j] = sc.heads[j], sc.heads[i]
		}
	}

	sc.sources = sc.sources[:0]
	sc.sinks = sc.sinks[:0]
	sc.queue = sc.queue[:0]
	for v := 0; v < nv; v++ {
		if sc.indeg[v] == 0 {
			//hfcvet:ignore hotalloc sources/queue retain capacity across pooled runs
			sc.sources = append(sc.sources, int32(v))
			//hfcvet:ignore hotalloc sources/queue retain capacity across pooled runs
			sc.queue = append(sc.queue, int32(v))
		}
		if sc.outdeg[v] == 0 {
			//hfcvet:ignore hotalloc sinks retains capacity across pooled runs
			sc.sinks = append(sc.sinks, int32(v))
		}
	}
	sc.order = sc.order[:0]
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		//hfcvet:ignore hotalloc order retains capacity across pooled runs
		sc.order = append(sc.order, u)
		for i := sc.headOff[u]; i < sc.headOff[u+1]; i++ {
			v := sc.heads[i]
			sc.indeg[v]--
			if sc.indeg[v] == 0 {
				//hfcvet:ignore hotalloc queue retains capacity across pooled runs
				sc.queue = append(sc.queue, v)
			}
		}
	}
	if len(sc.order) != nv {
		return 0, errors.New("routing: service graph contains a cycle")
	}

	// Flat label tables.
	sc.exact, sc.stride = r.mode() == RelaxExact, k
	if sc.exact {
		sc.layoutExact(dt)
	}
	n := nv * sc.stride
	sc.dist = grow(sc.dist, n)
	sc.entry = grow(sc.entry, n)
	sc.parV = grow(sc.parV, n)
	sc.parC = grow(sc.parC, n)
	if sc.exact {
		sc.parE = grow(sc.parE, n)
	}
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		sc.dist[i] = inf
	}

	// Initialize SG source vertices.
	for _, v := range sc.sources {
		for _, c := range sc.cands[v] {
			var d float64
			var entry int32 = -1
			if c != srcCluster {
				if r.CrossingAdmissible != nil && !r.CrossingAdmissible(srcCluster, c) {
					continue
				}
				_, inC, ext := crossingFlat(dt, srcCluster, c)
				d = ext
				entry = int32(inC)
			}
			slot := sc.slot(int(v), c, entry)
			if slot >= 0 && d < sc.dist[slot] {
				sc.dist[slot] = d
				sc.entry[slot] = entry
				sc.parV[slot] = -1
				sc.parC[slot] = -1
			}
		}
	}

	// Relax SG edges in topological order.
	for _, u := range sc.order {
		for _, c := range sc.cands[u] {
			lo, hi := sc.run(int(u), c)
			for uSlot := lo; uSlot < hi; uSlot++ {
				ud := sc.dist[uSlot]
				if math.IsInf(ud, 1) {
					continue
				}
				ue := sc.entry[uSlot]
				sc.nextLabel(len(dt.Pts))
				for i := sc.headOff[u]; i < sc.headOff[u+1]; i++ {
					v := sc.heads[i]
					for _, c2 := range sc.cands[v] {
						var nd float64
						var ne int32
						if c2 == c {
							nd = ud
							ne = ue
						} else {
							if r.CrossingAdmissible != nil && !r.CrossingAdmissible(c, c2) {
								continue
							}
							exitB, inC2, ext := crossingFlat(dt, c, c2)
							internal, err := r.internalMemo(sc, dt, externalOnly, ue, exitB)
							if err != nil {
								return 0, err
							}
							nd = ud + internal + ext
							ne = int32(inC2)
						}
						slot := sc.slot(int(v), c2, ne)
						if slot >= 0 && nd < sc.dist[slot] {
							sc.dist[slot] = nd
							sc.entry[slot] = ne
							sc.parV[slot] = u
							sc.parC[slot] = int32(c)
							if sc.exact {
								sc.parE[slot] = int32(uSlot - lo)
							}
						}
					}
				}
			}
		}
	}

	// Terminate at the destination proxy.
	best := inf
	bestV, bestC, bestI := -1, -1, 0
	for _, v := range sc.sinks {
		for _, c := range sc.cands[v] {
			lo, hi := sc.run(int(v), c)
			for slot := lo; slot < hi; slot++ {
				total := sc.dist[slot]
				if math.IsInf(total, 1) {
					continue
				}
				entry := sc.entry[slot]
				if c == destCluster {
					tail, err := r.internalFlat(dt, externalOnly, entry, r.View.Node)
					if err != nil {
						return 0, err
					}
					total += tail
				} else {
					if r.CrossingAdmissible != nil && !r.CrossingAdmissible(c, destCluster) {
						continue
					}
					exitB, inDest, ext := crossingFlat(dt, c, destCluster)
					internal, err := r.internalFlat(dt, externalOnly, entry, exitB)
					if err != nil {
						return 0, err
					}
					tail := 0.0
					if !externalOnly && inDest != r.View.Node {
						tail, err = r.distFlat(dt, inDest, r.View.Node)
						if err != nil {
							return 0, err
						}
					}
					total += internal + ext + tail
				}
				if total < best {
					best = total
					bestV, bestC, bestI = int(v), c, slot-lo
				}
			}
		}
	}
	if bestV == -1 {
		return 0, ErrInfeasible
	}

	// Reconstruct the CSP: measure the chain, then fill back-to-front.
	depth := 0
	for v, c, i := bestV, bestC, bestI; v != -1; {
		depth++
		lo, _ := sc.run(v, c)
		v, c, i = sc.parent(lo + i)
	}
	rs.csp = grow(rs.csp, depth)
	for v, c, i, at := bestV, bestC, bestI, depth-1; v != -1; at-- {
		//hfcvet:ignore hotalloc value assignment into the scratch's CSP
		rs.csp[at] = CSPEntry{SGVertex: v, Cluster: c}
		lo, _ := sc.run(v, c)
		v, c, i = sc.parent(lo + i)
	}
	return best, nil
}
