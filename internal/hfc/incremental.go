package hfc

import (
	"fmt"
	"sort"

	"hfc/internal/coords"
	"hfc/internal/geo"
)

// DynamicStats counts the maintenance work a Dynamic has performed, so
// tests and benchmarks can assert that incremental updates really skip the
// untouched cluster pairs a full rebuild would rescan.
type DynamicStats struct {
	// Leaves and Rejoins count accepted membership changes.
	Leaves, Rejoins int
	// PairsChecked counts cluster pairs examined across all updates;
	// PairsRecomputed counts how many of those actually re-ran the
	// closest-pair and backup scans.
	PairsChecked, PairsRecomputed int
}

// Dynamic maintains a topology's border tables incrementally under proxy
// churn (§4/§5): when a node leaves (crashes) or rejoins (recovers), only
// the cluster pairs whose border election that node could have influenced
// are recomputed, instead of rebuilding every pair from scratch.
//
// The incremental rule is provably equivalent to a full rebuild over the
// live membership: a departing node that is not an endpoint of a pair's
// primary or backup borders never won any greedy argmin for that pair, and
// with ties broken toward smaller indices, removing a losing candidate
// cannot change any winner — so those pairs are skipped outright. Touched
// pairs re-run exactly the closestPair + backupPairs election Build uses.
//
// A Dynamic is NOT safe for concurrent use; the overlay runtime guards it
// with its own mutex.
type Dynamic struct {
	cmap *coords.Map
	// home[n] is node n's (static) cluster; nodes never migrate.
	home []int
	// present[n] reports whether node n is currently live.
	present []bool
	// members[c] lists cluster c's live members, sorted ascending — the
	// same order Build scans, so elections match a rebuild bit for bit.
	members [][]int
	// borders and backups mirror Topology's tables over live members only.
	// Pairs touching an empty cluster are absent.
	borders map[[2]int]BorderPair
	backups map[[2]int][]BorderPair
	// geoOK enables the lazily built per-cluster geo indexes (geoIdx) the
	// re-elections query in place of brute scans; an entry is dropped
	// whenever its cluster's membership changes.
	geoOK  bool
	geoIdx []geo.Index
	stats  DynamicStats
}

// NewDynamic wraps a built topology for incremental maintenance. The
// initial state (all nodes present) copies the topology's own border
// tables, so a churn-free Dynamic agrees with the static Build exactly.
func NewDynamic(t *Topology) *Dynamic {
	n := t.N()
	k := t.NumClusters()
	d := &Dynamic{
		cmap:    t.coords,
		home:    make([]int, n),
		present: make([]bool, n),
		members: make([][]int, k),
		borders: make(map[[2]int]BorderPair, len(t.borders)),
		backups: make(map[[2]int][]BorderPair, len(t.backups)),
	}
	for i := 0; i < n; i++ {
		d.home[i] = t.ClusterOf(i)
		d.present[i] = true
	}
	for c := 0; c < k; c++ {
		d.members[c] = append([]int(nil), t.Members(c)...)
	}
	for key, pair := range t.borders {
		d.borders[key] = pair
	}
	for key, backs := range t.backups {
		d.backups[key] = append([]BorderPair(nil), backs...)
	}
	d.geoOK = n >= borderIndexMinN && geo.Finite(t.coords.Points)
	d.geoIdx = make([]geo.Index, k)
	return d
}

// indexFor returns the cached geo index over cluster c's live members,
// building it on first use after a membership change, or nil when the pair
// should elect brute-force (small overlay, small cluster, or a failed
// build, which disables indexing for the Dynamic's lifetime).
func (d *Dynamic) indexFor(c int) geo.Index {
	if !d.geoOK {
		return nil
	}
	if d.geoIdx[c] != nil {
		return d.geoIdx[c]
	}
	if len(d.members[c]) < clusterIndexMinSize {
		return nil
	}
	idx, err := geo.NewIndex(d.cmap.Points, d.members[c], geo.Auto)
	if err != nil {
		d.geoOK = false
		return nil
	}
	d.geoIdx[c] = idx
	return idx
}

// NumClusters returns the (fixed) cluster count.
func (d *Dynamic) NumClusters() int { return len(d.members) }

// Present reports whether a node is currently live.
func (d *Dynamic) Present(node int) bool {
	return node >= 0 && node < len(d.present) && d.present[node]
}

// Members returns cluster c's live members, sorted (shared slice — do not
// modify).
func (d *Dynamic) Members(c int) []int { return d.members[c] }

// Stats returns the cumulative maintenance counters.
func (d *Dynamic) Stats() DynamicStats { return d.stats }

// Border returns the live border pair between two distinct clusters,
// oriented so the first node lies in cluster a. ok is false when either
// cluster has no live members (or a == b / out of range), meaning no border
// election exists.
func (d *Dynamic) Border(a, b int) (inA, inB int, ok bool) {
	if a == b || a < 0 || b < 0 || a >= len(d.members) || b >= len(d.members) {
		return 0, 0, false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	pair, ok := d.borders[[2]int{lo, hi}]
	if !ok {
		return 0, 0, false
	}
	if a == lo {
		return pair.Low, pair.High, true
	}
	return pair.High, pair.Low, true
}

// touches reports whether node appears as an endpoint of the pair's current
// primary or backup borders.
func (d *Dynamic) touches(key [2]int, node int) bool {
	if p, ok := d.borders[key]; ok && (p.Low == node || p.High == node) {
		return true
	}
	for _, p := range d.backups[key] {
		if p.Low == node || p.High == node {
			return true
		}
	}
	return false
}

// recomputePair re-runs the §3.3 election for one cluster pair over the
// live membership. Empty clusters clear the pair's tables.
func (d *Dynamic) recomputePair(key [2]int) error {
	lo, hi := key[0], key[1]
	if len(d.members[lo]) == 0 || len(d.members[hi]) == 0 {
		delete(d.borders, key)
		delete(d.backups, key)
		return nil
	}
	pair, backs, err := electBorders(d.cmap, d.members[lo], d.members[hi], d.indexFor(hi))
	if err != nil {
		return fmt.Errorf("hfc: recomputing border pair (%d,%d): %w", lo, hi, err)
	}
	d.borders[key] = pair
	d.backups[key] = backs
	return nil
}

// pairKeysOf enumerates the normalized pair keys of cluster c against every
// other cluster, in ascending order of the other cluster's ID.
func (d *Dynamic) pairKeysOf(c int) [][2]int {
	keys := make([][2]int, 0, len(d.members)-1)
	for o := 0; o < len(d.members); o++ {
		if o == c {
			continue
		}
		lo, hi := c, o
		if lo > hi {
			lo, hi = hi, lo
		}
		keys = append(keys, [2]int{lo, hi})
	}
	return keys
}

// Leave removes a live node (crash or departure, §5.2) and repairs the
// border tables of its cluster's pairs. Only pairs whose current primary or
// backup borders include the node are re-elected; every other pair is
// provably unchanged. Leaving while already absent is an error.
func (d *Dynamic) Leave(node int) error {
	if node < 0 || node >= len(d.present) {
		return fmt.Errorf("hfc: leave of node %d out of range [0,%d)", node, len(d.present))
	}
	if !d.present[node] {
		return fmt.Errorf("hfc: node %d is already absent", node)
	}
	d.present[node] = false
	c := d.home[node]
	mem := d.members[c]
	i := sort.SearchInts(mem, node)
	d.members[c] = append(mem[:i], mem[i+1:]...)
	d.geoIdx[c] = nil
	d.stats.Leaves++
	for _, key := range d.pairKeysOf(c) {
		d.stats.PairsChecked++
		// An emptied cluster invalidates all its pairs regardless of
		// endpoints; otherwise only elections the node won need re-running.
		if len(d.members[c]) != 0 && !d.touches(key, node) {
			continue
		}
		d.stats.PairsRecomputed++
		if err := d.recomputePair(key); err != nil {
			return err
		}
	}
	return nil
}

// Rejoin restores an absent node to its home cluster (recovery, §5.2) and
// re-elects every border pair of that cluster: a returning node can become
// the new closest cross pair toward any other cluster, so all of them are
// checked by re-running the election. Rejoining while present is an error.
func (d *Dynamic) Rejoin(node int) error {
	if node < 0 || node >= len(d.present) {
		return fmt.Errorf("hfc: rejoin of node %d out of range [0,%d)", node, len(d.present))
	}
	if d.present[node] {
		return fmt.Errorf("hfc: node %d is already present", node)
	}
	d.present[node] = true
	c := d.home[node]
	mem := d.members[c]
	i := sort.SearchInts(mem, node)
	d.members[c] = append(mem[:i], append([]int{node}, mem[i:]...)...)
	d.geoIdx[c] = nil
	d.stats.Rejoins++
	for _, key := range d.pairKeysOf(c) {
		d.stats.PairsChecked++
		d.stats.PairsRecomputed++
		if err := d.recomputePair(key); err != nil {
			return err
		}
	}
	return nil
}

// DynamicSnapshot is a deep copy of a Dynamic's live border state, in a
// directly comparable form: the chaos property tests assert a healed
// overlay's snapshot is DeepEqual to a freshly rebuilt one.
type DynamicSnapshot struct {
	// Members lists each cluster's live members, sorted ascending.
	Members [][]int
	// Borders and Backups mirror the live election tables, keyed by
	// normalized cluster pair.
	Borders map[[2]int]BorderPair
	Backups map[[2]int][]BorderPair
}

// Snapshot deep-copies the Dynamic's live membership and border tables.
func (d *Dynamic) Snapshot() DynamicSnapshot {
	s := DynamicSnapshot{
		Members: make([][]int, len(d.members)),
		Borders: make(map[[2]int]BorderPair, len(d.borders)),
		Backups: make(map[[2]int][]BorderPair, len(d.backups)),
	}
	for c, mem := range d.members {
		s.Members[c] = append([]int(nil), mem...)
	}
	for k, p := range d.borders {
		s.Borders[k] = p
	}
	for k, ps := range d.backups {
		s.Backups[k] = append([]BorderPair(nil), ps...)
	}
	return s
}

// Rebuild re-elects every cluster pair from the live membership, ignoring
// the incremental state. It is the reference the equivalence tests compare
// against and the baseline the maintenance benchmark measures incremental
// updates over.
func (d *Dynamic) Rebuild() error {
	k := len(d.members)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if err := d.recomputePair([2]int{a, b}); err != nil {
				return err
			}
		}
	}
	return nil
}
