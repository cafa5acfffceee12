package routing

import (
	"cmp"
	"fmt"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Labeling assigns tree coordinates to nodes. A labeling built from a
// validated tree (Label) covers every node and has a single root; a
// labeling built from raw parent pointers (LiveLabeling) may be partial
// — nodes on parent cycles or pointing at non-neighbors carry no
// coordinate — and may have several claimed roots, each defining its own
// coordinate space.
//
// Internally a Labeling is array-backed over the same contiguous index
// space as graph.Dense: ids holds the covered identities in increasing
// order, and coords/root/has are parallel to it. The router detects
// when a labeling's index space coincides with its graph's dense
// snapshot and then forwards entirely index-addressed, with no per-hop
// map lookups (see Router.NextHop).
type Labeling struct {
	ids  []graph.NodeID // the labeling's index space; graph.NoNode marks holes
	crds []Coords       // crds[i] is the coordinate of ids[i], valid iff has[i]
	root []graph.NodeID // root[i] is the coordinate space of ids[i]
	has  []bool
	n    int // labeled nodes

	// sorted: ids is ascending with no holes, so indexOf binary-
	// searches. After topology churn has recycled dense slots, the
	// space is unsorted and indexOf goes through the idx map instead,
	// built eagerly wherever sorted turns false (indexIDs) so that
	// lookups only read and concurrent routers may share a labeling.
	sorted bool
	idx    map[graph.NodeID]int32

	// d + nodeEpoch: labelings built over a graph's dense slot space
	// record which Dense and which slot-assignment epoch they saw, so
	// the router takes its slot-aligned fast path exactly while the
	// assignment is provably unchanged (see Router.SetLabeling). The
	// ids slice is an owned copy, never the Dense's live array: a
	// labeling held across churn keeps a consistent (merely stale)
	// identity space instead of a corrupted one.
	d         *graph.Dense
	nodeEpoch uint64
}

// newLabeling returns an unlabeled labeling over the given identity
// space (shared, read-only).
func newLabeling(ids []graph.NodeID) *Labeling {
	l := &Labeling{
		ids:    ids,
		crds:   make([]Coords, len(ids)),
		root:   make([]graph.NodeID, len(ids)),
		has:    make([]bool, len(ids)),
		sorted: slices.IsSorted(ids),
	}
	l.indexIDs()
	return l
}

// indexIDs builds the identity map an unsorted space looks up through,
// unless the space is sorted or the map already exists (the churn
// hooks then keep it current per node).
func (l *Labeling) indexIDs() {
	if l.sorted || l.idx != nil {
		return
	}
	l.idx = make(map[graph.NodeID]int32, len(l.ids))
	for i, id := range l.ids {
		if id != graph.NoNode {
			l.idx[id] = int32(i)
		}
	}
}

// indexOf returns v's index in the labeling's identity space. It only
// reads, so any number of goroutines may call it concurrently.
func (l *Labeling) indexOf(v graph.NodeID) (int, bool) {
	if l.sorted {
		return slices.BinarySearch(l.ids, v)
	}
	i, ok := l.idx[v]
	return int(i), ok
}

// setAt labels index i with coordinate c in root r's space.
func (l *Labeling) setAt(i int, c Coords, r graph.NodeID) {
	if !l.has[i] {
		l.has[i] = true
		l.n++
	}
	l.crds[i] = c
	l.root[i] = r
}

// clearAt drops index i's label (no-op if unlabeled).
func (l *Labeling) clearAt(i int) {
	if l.has[i] {
		l.has[i] = false
		l.n--
		l.crds[i] = nil
		l.root[i] = 0
	}
}

// Label builds the full coordinate labeling of a validated tree in
// O(n log n): a top-down pass assigning each node its parent's
// coordinate extended by its port (index within the parent's sorted
// children).
func Label(t *trees.Tree) *Labeling {
	ix := trees.NewIndex(t)
	l := newLabeling(t.Nodes()) // Nodes returns a fresh sorted slice
	root := t.Root()
	ri, _ := l.indexOf(root)
	l.setAt(ri, Coords{}, root)
	for _, v := range ix.BFSOrder() {
		vi, _ := l.indexOf(v)
		base := l.crds[vi]
		for port, c := range ix.Children(v) {
			cc := make(Coords, len(base)+1)
			copy(cc, base)
			cc[len(base)] = Port(port)
			ci, _ := l.indexOf(c)
			l.setAt(ci, cc, root)
		}
	}
	return l
}

// LiveLabeling builds the best labeling obtainable from raw parent
// pointers read out of a live (possibly mid-reconvergence, possibly
// corrupted) network. Pointers to non-neighbors are discarded; every
// node whose parent pointer is trees.None becomes the root of its own
// coordinate space; nodes that do not reach any root (parent cycles)
// get no coordinate. This models what a serving layer actually has
// while the self-stabilizing construction repairs itself underneath it.
//
// The pass is entirely index-addressed over the graph's dense slot
// space: parents is indexed by dense slot (use LiveParents to read one
// out of a network) with NoParent marking nodes that carry no credible
// parent pointer (vacated slots included). The labeling's index space
// is the slot space, so a router over the same graph forwards over it
// without any identity lookups. Ports are assigned by ascending child
// identity — stable across slot recycling, and identical to the port
// numbering of Label over a validated tree.
func LiveLabeling(g *graph.Graph, parents []graph.NodeID) *Labeling {
	d := g.Dense()
	n := d.Slots()
	if len(parents) != n {
		panic(fmt.Sprintf("routing: %d parent entries for %d slots", len(parents), n))
	}
	l := newLabeling(slices.Clone(d.IDs()))
	l.d = d
	l.nodeEpoch = d.NodeEpoch()
	// Children lists from the credible pointers only, in increasing
	// child order (one counting pass, then a fill pass — no per-node
	// append growth).
	childCount := make([]int32, n+1)
	childIdx := make([]int32, n) // parent slot of each child, or -1
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		childIdx[i] = -1
		if !d.LiveAt(i) {
			continue
		}
		p := parents[i]
		if p == NoParent {
			continue
		}
		if p == trees.None {
			l.setAt(i, Coords{}, d.ID(i))
			queue = append(queue, int32(i))
			continue
		}
		pi, ok := d.IndexOf(p)
		if !ok || !hasNeighborID(d, i, p) {
			continue // corrupted pointer: not even a neighbor
		}
		childIdx[i] = int32(pi)
		childCount[pi+1]++
	}
	for i := 1; i <= n; i++ {
		childCount[i] += childCount[i-1]
	}
	children := make([]int32, childCount[n])
	fill := make([]int32, n)
	copy(fill, childCount[:n])
	for i := 0; i < n; i++ {
		if pi := childIdx[i]; pi >= 0 {
			children[fill[pi]] = int32(i)
			fill[pi]++
		}
	}
	if !d.Sorted() {
		// Ascending slot order is no longer ascending identity order:
		// restore the identity-sorted port numbering per parent.
		ids := d.IDs()
		for i := 0; i < n; i++ {
			row := children[childCount[i]:fill[i]]
			if len(row) > 1 {
				slices.SortFunc(row, func(a, b int32) int {
					return cmp.Compare(ids[a], ids[b])
				})
			}
		}
	}
	// Top-down from each claimed root; unreached nodes stay unlabeled.
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		base := l.crds[v]
		space := l.root[v]
		for port, c := range children[childCount[v]:fill[v]] {
			cc := make(Coords, len(base)+1)
			copy(cc, base)
			cc[len(base)] = Port(port)
			l.setAt(int(c), cc, space)
			queue = append(queue, c)
		}
	}
	return l
}

// hasNeighborID reports whether identity p is a neighbor of dense slot
// i. The search runs over the identity-sorted neighbor row, which
// stays sorted across churn (slot order does not).
func hasNeighborID(d *graph.Dense, i int, p graph.NodeID) bool {
	_, ok := slices.BinarySearch(d.NeighborIDs(i), p)
	return ok
}

// NoParent marks a dense index whose register carries no credible
// parent pointer at all (a foreign or corrupted state), as opposed to
// trees.None, which is a genuine "I am a root" claim.
const NoParent = graph.NodeID(-1)

// ParentsFromMap converts an identity-keyed parent map into the
// slot-indexed parent slice LiveLabeling consumes: absent nodes and
// vacated slots become NoParent.
func ParentsFromMap(g *graph.Graph, parent map[graph.NodeID]graph.NodeID) []graph.NodeID {
	d := g.Dense()
	out := make([]graph.NodeID, d.Slots())
	for i := range out {
		out[i] = NoParent
		if d.LiveAt(i) {
			if p, ok := parent[d.ID(i)]; ok {
				out[i] = p
			}
		}
	}
	return out
}

// Coords returns v's coordinate; ok is false for unlabeled nodes.
func (l *Labeling) Coords(v graph.NodeID) (Coords, bool) {
	i, ok := l.indexOf(v)
	if !ok || !l.has[i] {
		return nil, false
	}
	return l.crds[i], true
}

// RootOf returns the root of the coordinate space v belongs to; ok is
// false for unlabeled nodes.
func (l *Labeling) RootOf(v graph.NodeID) (graph.NodeID, bool) {
	i, ok := l.indexOf(v)
	if !ok || !l.has[i] {
		return 0, false
	}
	return l.root[i], true
}

// Covered returns the number of labeled nodes.
func (l *Labeling) Covered() int { return l.n }

// Complete reports whether every live node got a coordinate in one
// single coordinate space — true exactly for labelings of validated
// trees (and of fully re-stabilized live networks).
func (l *Labeling) Complete() bool {
	size := 0
	for _, id := range l.ids {
		if id != graph.NoNode {
			size++
		}
	}
	if l.n != size {
		return false
	}
	space := graph.NoNode
	for i := range l.root {
		if !l.has[i] {
			continue
		}
		if space == graph.NoNode {
			space = l.root[i]
		} else if l.root[i] != space {
			return false
		}
	}
	return true
}

// TreeDist returns the tree distance between u and v. ok is false when
// either node is unlabeled or they belong to different coordinate
// spaces (in which case no tree route exists under this labeling).
func (l *Labeling) TreeDist(u, v graph.NodeID) (int, bool) {
	ui, okU := l.indexOf(u)
	vi, okV := l.indexOf(v)
	if !okU || !okV || !l.has[ui] || !l.has[vi] || l.root[ui] != l.root[vi] {
		return 0, false
	}
	return l.crds[ui].Dist(l.crds[vi]), true
}

// IsAncestor reports whether u is an ancestor of v under the labeling
// (false when either is unlabeled or the spaces differ).
func (l *Labeling) IsAncestor(u, v graph.NodeID) bool {
	ui, okU := l.indexOf(u)
	vi, okV := l.indexOf(v)
	return okU && okV && l.has[ui] && l.has[vi] &&
		l.root[ui] == l.root[vi] && l.crds[ui].IsAncestorOf(l.crds[vi])
}

// MaxLabelBits returns the largest encoded coordinate in bits — the
// per-register space a node would pay to carry its label (the space
// accounting next to the paper's O(log n)-bit registers).
func (l *Labeling) MaxLabelBits() int {
	max := 0
	for i, c := range l.crds {
		if !l.has[i] {
			continue
		}
		if b := c.EncodedBits(); b > max {
			max = b
		}
	}
	return max
}

// Verify checks a complete labeling against its tree: every node's
// coordinate must be exactly its parent's coordinate extended by its
// port, so depths, ports, and the whole root path are validated for
// every node. It is used by tests as the labeler's ground-truth check.
func (l *Labeling) Verify(t *trees.Tree) error {
	if !l.Complete() {
		return fmt.Errorf("routing: labeling covers %d of %d nodes", l.Covered(), len(l.ids))
	}
	ix := trees.NewIndex(t)
	for i, v := range l.ids {
		c := l.crds[i]
		if v == t.Root() {
			if len(c) != 0 {
				return fmt.Errorf("routing: root %d has non-empty coordinate %v", v, c)
			}
			continue
		}
		p := t.Parent(v)
		port, ok := ix.PortOf(p, v)
		if !ok {
			return fmt.Errorf("routing: node %d is not a child of its parent %d", v, p)
		}
		pc, _ := l.Coords(p)
		if len(c) != len(pc)+1 || !pc.IsAncestorOf(c) || c[len(c)-1] != Port(port) {
			return fmt.Errorf("routing: node %d coordinate %v does not extend parent %d's %v by port %d",
				v, c, p, pc, port)
		}
	}
	return nil
}
