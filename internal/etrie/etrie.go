// Package etrie implements the embedding trie of Section 5: a compact
// forest that stores intermediate enumeration results (embeddings and
// embedding candidates) as merged leaf-to-root paths, plus the edge
// verification index (EVI, Definition 5) that groups embedding
// candidates sharing an undetermined edge.
//
// Following Definition 11, a node stores only its data vertex, a parent
// pointer and a child counter; the address of a leaf node is the unique
// ID of the result it represents, retrieval walks parent pointers, and
// removal cascades: deleting a leaf decrements its parent's counter and
// recursively removes parents whose counter reaches zero.
package etrie

import (
	"cmp"
	"fmt"
	"slices"

	"rads/internal/graph"
)

// Node is one embedding-trie node. Nodes are created detached
// (Algorithm 2 line 14 creates N' before knowing whether any deeper
// expansion succeeds) and only counted once linked.
type Node struct {
	V          graph.VertexID
	Parent     *Node
	childCount int32
	linked     bool
	dead       bool
}

// Dead reports whether the node has been removed from the trie. The
// EVI may hold references to leaves that an earlier failed edge already
// removed; filtering must skip them.
func (n *Node) Dead() bool { return n.dead }

// ChildCount returns the number of linked live children.
func (n *Node) ChildCount() int { return int(n.childCount) }

// NodeBytes is the accounted in-memory footprint of one trie node:
// vertex (4) + parent pointer (8) + child counter (4) + flags/padding.
const NodeBytes = 24

// VertexBytes is the accounted footprint of one vertex in a plain
// embedding list, the uncompressed representation Table 3/4 compares
// against.
const VertexBytes = 4

// Trie is an embedding trie for results of a fixed query pattern.
// The zero value is not usable; call New.
type Trie struct {
	depth     int // number of query vertices = levels
	nodeCount int
	peakNodes int
}

// New returns an empty trie for patterns with depth query vertices.
func New(depth int) *Trie {
	return &Trie{depth: depth}
}

// Depth returns the number of levels (query vertices) of full results.
func (t *Trie) Depth() int { return t.depth }

// Node creates a detached node mapping some query vertex to data
// vertex v, below parent (nil for a root). The node is not part of the
// trie until Link is called.
func (t *Trie) Node(parent *Node, v graph.VertexID) *Node {
	return &Node{V: v, Parent: parent}
}

// Link inserts a detached node into the trie, incrementing its
// parent's child counter. Linking an already linked or dead node is a
// programming error and panics.
func (t *Trie) Link(n *Node) {
	if n.linked || n.dead {
		panic("etrie: Link on linked or dead node")
	}
	n.linked = true
	if n.Parent != nil {
		n.Parent.childCount++
	}
	t.nodeCount++
	if t.nodeCount > t.peakNodes {
		t.peakNodes = t.nodeCount
	}
}

// Remove deletes a linked node and cascades upward: every ancestor
// whose child counter drops to zero is removed too (Section 5.1,
// "Removal"). Removing a node that still has children panics — only
// results (leaves) may be removed directly.
func (t *Trie) Remove(n *Node) {
	for n != nil {
		if !n.linked || n.dead {
			panic("etrie: Remove on unlinked or dead node")
		}
		if n.childCount != 0 {
			panic(fmt.Sprintf("etrie: Remove on node with %d children", n.childCount))
		}
		n.dead = true
		t.nodeCount--
		p := n.Parent
		if p == nil {
			return
		}
		p.childCount--
		if p.childCount > 0 {
			return
		}
		n = p
	}
}

// Pin adds a guard reference to n, preventing removal cascades from
// deleting it while an enumeration loop is still expanding beneath it.
// A mid-round flush (rads memory control) may remove all of n's
// children while n is still the active expansion parent; the pin keeps
// n alive until Unpin.
func (t *Trie) Pin(n *Node) {
	if !n.linked || n.dead {
		panic("etrie: Pin on unlinked or dead node")
	}
	n.childCount++
}

// Unpin drops the guard reference added by Pin. If no real children
// remain, the node's subtree has been fully resolved (emitted or
// filtered) and the node is removed, cascading upward as usual.
func (t *Trie) Unpin(n *Node) {
	if !n.linked || n.dead {
		panic("etrie: Unpin on unlinked or dead node")
	}
	n.childCount--
	if n.childCount == 0 {
		t.Remove(n)
	}
}

// NodeCount returns the number of live linked nodes.
func (t *Trie) NodeCount() int { return t.nodeCount }

// PeakNodes returns the high-water mark of live nodes.
func (t *Trie) PeakNodes() int { return t.peakNodes }

// Bytes returns the accounted current footprint of the trie.
func (t *Trie) Bytes() int64 { return int64(t.nodeCount) * NodeBytes }

// PeakBytes returns the accounted peak footprint of the trie.
func (t *Trie) PeakBytes() int64 { return int64(t.peakNodes) * NodeBytes }

// Path returns the root-to-leaf data-vertex path identified by leaf
// ("Retrieval" in Section 5.1). The path has length level+1, where the
// root is level 0.
func (t *Trie) Path(leaf *Node) []graph.VertexID {
	return t.AppendPath(nil, leaf)
}

// AppendPath appends the root-to-leaf path to dst and returns it,
// avoiding allocation in hot loops.
func (t *Trie) AppendPath(dst []graph.VertexID, leaf *Node) []graph.VertexID {
	start := len(dst)
	for n := leaf; n != nil; n = n.Parent {
		dst = append(dst, n.V)
	}
	// Reverse the appended suffix in place.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Level returns the level of a node (root = 0).
func Level(n *Node) int {
	l := 0
	for n.Parent != nil {
		l++
		n = n.Parent
	}
	return l
}

// EVI is the edge verification index of Definition 5: undetermined
// data edge -> IDs (trie leaves) of the embedding candidates that
// require it. If a key edge turns out not to exist, every EC listed
// under it is filtered out (Proposition 2).
//
// The index is an append-only log of runs: a run is one edge and a
// range of consecutively added leaves that all need it. Sibling ECs
// share the undetermined edges of their common prefix, so an edge's
// leaves mostly arrive back to back and one run covers them; a leaf
// costs one pointer, not one entry per edge. The first read after an
// Add sorts the runs by edge and groups them. Reset truncates the log,
// so an index reused across rounds stops allocating once its buffers
// have grown to the largest round.
type EVI struct {
	leaves []*Node  // distinct consecutive leaves, in Add order
	runs   []eviRun // sorted by key while grouped
	// prev and cur hold the runs the previous and the current leaf
	// opened or extended: a run can grow only onto the next leaf.
	prev, cur []int32
	// edges are the distinct edges of the sorted runs; the runs of
	// edges[i] are runs[starts[i]:starts[i+1]]. Valid while grouped.
	edges   []graph.Edge
	starts  []int32
	grouped bool
}

type eviRun struct {
	key    uint64 // normalised edge (U, V) as U<<32 | V: orders like (U, V)
	lo, hi int32  // leaves[lo:hi] need the edge
}

func edgeKey(e graph.Edge) uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.V)) }

func compareEdges(a, b graph.Edge) int { return cmp.Compare(edgeKey(a), edgeKey(b)) }

// NewEVI returns an empty index.
func NewEVI() *EVI { return &EVI{grouped: true} }

// Add registers leaf under undetermined edge e (normalised).
func (e *EVI) Add(edge graph.Edge, leaf *Node) {
	k := edgeKey(edge.Normalize())
	if n := len(e.leaves); n == 0 || e.leaves[n-1] != leaf {
		e.leaves = append(e.leaves, leaf)
		e.prev, e.cur = e.cur, e.prev[:0]
	}
	i := int32(len(e.leaves) - 1)
	e.grouped = false
	for _, r := range e.prev {
		if run := &e.runs[r]; run.key == k && run.hi == i {
			run.hi++
			e.cur = append(e.cur, r)
			return
		}
	}
	e.cur = append(e.cur, int32(len(e.runs)))
	e.runs = append(e.runs, eviRun{key: k, lo: i, hi: i + 1})
}

// group sorts the runs by edge and indexes the runs of each edge.
func (e *EVI) group() {
	if e.grouped {
		return
	}
	slices.SortFunc(e.runs, func(a, b eviRun) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo) // an edge's leaves stay in Add order
	})
	// Sorting moved the runs prev and cur point at; a later Add starts
	// fresh runs.
	e.prev, e.cur = e.prev[:0], e.cur[:0]
	e.edges, e.starts = e.edges[:0], e.starts[:0]
	for i, r := range e.runs {
		if i == 0 || r.key != e.runs[i-1].key {
			e.edges = append(e.edges, graph.Edge{U: graph.VertexID(r.key >> 32), V: graph.VertexID(uint32(r.key))})
			e.starts = append(e.starts, int32(i))
		}
	}
	e.starts = append(e.starts, int32(len(e.runs)))
	e.grouped = true
}

// runsOf returns the runs registered under edge.
func (e *EVI) runsOf(edge graph.Edge) []eviRun {
	e.group()
	i, ok := slices.BinarySearchFunc(e.edges, edge.Normalize(), compareEdges)
	if !ok {
		return nil
	}
	return e.runs[e.starts[i]:e.starts[i+1]]
}

// Len returns the number of distinct undetermined edges.
func (e *EVI) Len() int {
	e.group()
	return len(e.edges)
}

// Edges returns the undetermined edges in deterministic (sorted) order;
// these form the payload of a verifyE request. The slice is the
// index's own and is valid until the next Add or Reset.
func (e *EVI) Edges() []graph.Edge {
	e.group()
	return e.edges
}

// Candidates returns the live leaves registered under edge.
func (e *EVI) Candidates(edge graph.Edge) []*Node {
	var out []*Node
	for _, r := range e.runsOf(edge) {
		for _, n := range e.leaves[r.lo:r.hi] {
			if !n.Dead() {
				out = append(out, n)
			}
		}
	}
	return out
}

// Fail removes every still-live EC that depends on edge from the trie
// (the edge was verified non-existent). Returns the number of ECs
// filtered.
func (e *EVI) Fail(edge graph.Edge, t *Trie) int {
	removed := 0
	for _, r := range e.runsOf(edge) {
		for _, n := range e.leaves[r.lo:r.hi] {
			if !n.Dead() {
				t.Remove(n)
				removed++
			}
		}
	}
	return removed
}

// Reset clears the index for the next round (Algorithm 4 line 11),
// keeping its buffers. The leaf pointers are zeroed so removed trie
// nodes do not stay reachable through the spare capacity.
func (e *EVI) Reset() {
	clear(e.leaves)
	e.leaves, e.runs = e.leaves[:0], e.runs[:0]
	e.prev, e.cur = e.prev[:0], e.cur[:0]
	e.edges, e.starts = e.edges[:0], e.starts[:0]
	e.grouped = true
}
