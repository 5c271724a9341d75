package etrie

import (
	"math/rand"
	"reflect"
	"testing"

	"rads/internal/graph"
)

// buildPaths links the given root-to-leaf paths into a trie with full
// prefix sharing and returns the leaves.
func buildPaths(t *Trie, paths [][]graph.VertexID) []*Node {
	type key struct {
		parent *Node
		v      graph.VertexID
	}
	existing := make(map[key]*Node)
	var leaves []*Node
	for _, p := range paths {
		var cur *Node
		for _, v := range p {
			k := key{cur, v}
			n, ok := existing[k]
			if !ok {
				n = t.Node(cur, v)
				t.Link(n)
				existing[k] = n
			}
			cur = n
		}
		leaves = append(leaves, cur)
	}
	return leaves
}

func TestExample6Figure5(t *testing.T) {
	// Example 6: three ECs of P0 sharing prefixes:
	// (v0,v1,v2), (v0,v1,v9), (v0,v9,v11).
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{
		{0, 1, 2}, {0, 1, 9}, {0, 9, 11},
	})
	// Figure 5(a): 1 root + 2 level-1 nodes + 3 leaves = 6 nodes,
	// versus 9 vertices in list form.
	if tr.NodeCount() != 6 {
		t.Fatalf("NodeCount = %d, want 6", tr.NodeCount())
	}
	// "When the second EC is filtered out" -> Figure 5(b): 5 nodes.
	tr.Remove(leaves[1])
	if tr.NodeCount() != 5 {
		t.Fatalf("after removal NodeCount = %d, want 5", tr.NodeCount())
	}
	if !leaves[1].Dead() || leaves[0].Dead() || leaves[2].Dead() {
		t.Error("wrong leaves dead")
	}
	// Paths still retrievable for survivors.
	if got := tr.Path(leaves[0]); !reflect.DeepEqual(got, []graph.VertexID{0, 1, 2}) {
		t.Errorf("Path = %v", got)
	}
	if got := tr.Path(leaves[2]); !reflect.DeepEqual(got, []graph.VertexID{0, 9, 11}) {
		t.Errorf("Path = %v", got)
	}
}

func TestRemoveCascades(t *testing.T) {
	// Single chain: removing the leaf removes everything.
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{{5, 6, 7}})
	tr.Remove(leaves[0])
	if tr.NodeCount() != 0 {
		t.Fatalf("NodeCount = %d, want 0", tr.NodeCount())
	}
}

func TestRemoveStopsAtSharedAncestor(t *testing.T) {
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{{1, 2, 3}, {1, 2, 4}})
	tr.Remove(leaves[0])
	// Shared prefix (1,2) survives plus leaf 4.
	if tr.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", tr.NodeCount())
	}
	if got := tr.Path(leaves[1]); !reflect.DeepEqual(got, []graph.VertexID{1, 2, 4}) {
		t.Errorf("Path = %v", got)
	}
}

func TestLinkPanics(t *testing.T) {
	tr := New(2)
	n := tr.Node(nil, 1)
	tr.Link(n)
	assertPanics(t, func() { tr.Link(n) })
}

func TestRemovePanicsOnInternalNode(t *testing.T) {
	tr := New(2)
	root := tr.Node(nil, 1)
	tr.Link(root)
	child := tr.Node(root, 2)
	tr.Link(child)
	assertPanics(t, func() { tr.Remove(root) })
}

func TestRemovePanicsOnDetachedNode(t *testing.T) {
	tr := New(2)
	n := tr.Node(nil, 1)
	assertPanics(t, func() { tr.Remove(n) })
}

func TestLevelAndPeak(t *testing.T) {
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1, 2}})
	if Level(leaves[0]) != 2 {
		t.Errorf("Level = %d, want 2", Level(leaves[0]))
	}
	tr.Remove(leaves[0])
	if tr.PeakNodes() != 3 {
		t.Errorf("PeakNodes = %d, want 3", tr.PeakNodes())
	}
	if tr.Bytes() != 0 || tr.PeakBytes() != 3*NodeBytes {
		t.Errorf("Bytes = %d, PeakBytes = %d", tr.Bytes(), tr.PeakBytes())
	}
}

func TestAppendPathReuse(t *testing.T) {
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{{7, 8, 9}})
	buf := make([]graph.VertexID, 0, 8)
	buf = tr.AppendPath(buf, leaves[0])
	if !reflect.DeepEqual(buf, []graph.VertexID{7, 8, 9}) {
		t.Errorf("AppendPath = %v", buf)
	}
	// Appending again extends, does not clobber.
	buf = tr.AppendPath(buf, leaves[0])
	if !reflect.DeepEqual(buf, []graph.VertexID{7, 8, 9, 7, 8, 9}) {
		t.Errorf("AppendPath 2nd = %v", buf)
	}
}

// Compression property: for any set of shared-prefix paths the trie
// never stores more nodes than the list form stores vertices, and the
// trie stores exactly the number of distinct prefixes.
func TestCompressionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		depth := 2 + rng.Intn(4)
		numPaths := 1 + rng.Intn(30)
		paths := make([][]graph.VertexID, 0, numPaths)
		prefixes := make(map[string]bool)
		listVertices := 0
		for i := 0; i < numPaths; i++ {
			p := make([]graph.VertexID, depth)
			for j := range p {
				p[j] = graph.VertexID(rng.Intn(3)) // small alphabet -> sharing
			}
			// Deduplicate full paths: a trie cannot hold duplicate results.
			key := ""
			for _, v := range p {
				key += string(rune('a' + v))
			}
			if prefixes["full:"+key] {
				continue
			}
			prefixes["full:"+key] = true
			paths = append(paths, p)
			listVertices += depth
			pk := ""
			for _, v := range p {
				pk += string(rune('a' + v))
				prefixes[pk] = true
			}
		}
		distinctPrefixes := 0
		for k := range prefixes {
			if len(k) > 5 && k[:5] == "full:" {
				continue
			}
			distinctPrefixes++
		}
		tr := New(depth)
		buildPaths(tr, paths)
		if tr.NodeCount() != distinctPrefixes {
			t.Fatalf("trial %d: NodeCount = %d, want %d distinct prefixes", trial, tr.NodeCount(), distinctPrefixes)
		}
		if tr.NodeCount() > listVertices {
			t.Fatalf("trial %d: trie (%d) larger than list (%d)", trial, tr.NodeCount(), listVertices)
		}
	}
}

// Random insert/remove stress: node count returns to zero when all
// results are removed, and never goes negative.
func TestInsertRemoveStress(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		tr := New(4)
		var paths [][]graph.VertexID
		n := 1 + rng.Intn(40)
		seen := make(map[[4]graph.VertexID]bool)
		for i := 0; i < n; i++ {
			var p [4]graph.VertexID
			for j := range p {
				p[j] = graph.VertexID(rng.Intn(4))
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p[:])
		}
		leaves := buildPaths(tr, paths)
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		for _, lf := range leaves {
			tr.Remove(lf)
		}
		if tr.NodeCount() != 0 {
			t.Fatalf("trial %d: NodeCount = %d after removing all", trial, tr.NodeCount())
		}
	}
}

func TestEVIExample2(t *testing.T) {
	// Example 2: two ECs share undetermined edge (v1,v2); if it fails,
	// both are filtered.
	tr := New(3)
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1, 2}, {3, 1, 2}})
	evi := NewEVI()
	e := graph.Edge{U: 1, V: 2}
	evi.Add(e, leaves[0])
	evi.Add(e, leaves[1])
	if evi.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (shared edge)", evi.Len())
	}
	if got := evi.Fail(e, tr); got != 2 {
		t.Fatalf("Fail removed %d, want 2", got)
	}
	if tr.NodeCount() != 0 {
		t.Errorf("NodeCount = %d, want 0", tr.NodeCount())
	}
}

func TestEVINormalizesKeys(t *testing.T) {
	tr := New(2)
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}})
	evi := NewEVI()
	evi.Add(graph.Edge{U: 9, V: 4}, leaves[0])
	if got := evi.Candidates(graph.Edge{U: 4, V: 9}); len(got) != 1 {
		t.Errorf("Candidates after reversed add = %v", got)
	}
}

func TestEVISkipsDeadLeaves(t *testing.T) {
	tr := New(2)
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}, {0, 2}})
	evi := NewEVI()
	e1 := graph.Edge{U: 1, V: 2}
	e2 := graph.Edge{U: 3, V: 4}
	evi.Add(e1, leaves[0])
	evi.Add(e2, leaves[0]) // same EC depends on two undetermined edges
	evi.Add(e2, leaves[1])
	if got := evi.Fail(e1, tr); got != 1 {
		t.Fatalf("Fail(e1) = %d, want 1", got)
	}
	// leaves[0] now dead; failing e2 must not double-remove it.
	if got := evi.Fail(e2, tr); got != 1 {
		t.Fatalf("Fail(e2) = %d, want 1 (only the live leaf)", got)
	}
	if tr.NodeCount() != 0 {
		t.Errorf("NodeCount = %d", tr.NodeCount())
	}
}

func TestEVIEdgesSortedAndReset(t *testing.T) {
	evi := NewEVI()
	tr := New(2)
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}})
	evi.Add(graph.Edge{U: 5, V: 2}, leaves[0])
	evi.Add(graph.Edge{U: 1, V: 9}, leaves[0])
	evi.Add(graph.Edge{U: 1, V: 3}, leaves[0])
	got := evi.Edges()
	want := []graph.Edge{{U: 1, V: 3}, {U: 1, V: 9}, {U: 2, V: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	evi.Reset()
	if evi.Len() != 0 {
		t.Errorf("Len after Reset = %d", evi.Len())
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestEVICycleAllocFree: once its buffers have grown, a round of the
// index — Add, Edges, Fail, Reset — allocates nothing.
func TestEVICycleAllocFree(t *testing.T) {
	tr := New(2)
	root := tr.Node(nil, 0)
	tr.Link(root)
	tr.Pin(root) // keeps the root alive when every leaf is filtered
	leaves := make([]Node, 64)
	evi := NewEVI()
	removed := 0
	round := func() {
		for i := range leaves {
			leaves[i] = Node{V: graph.VertexID(i + 1), Parent: root}
			tr.Link(&leaves[i])
			evi.Add(graph.Edge{U: graph.VertexID(i % 7), V: 100}, &leaves[i])
			evi.Add(graph.Edge{U: 200, V: graph.VertexID(i % 5)}, &leaves[i])
		}
		for _, e := range evi.Edges() {
			removed += evi.Fail(e, tr)
		}
		evi.Reset()
	}
	round() // grow the buffers
	if removed != len(leaves) {
		t.Fatalf("a round filtered %d leaves, want %d", removed, len(leaves))
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("EVI round allocates %.1f times, want 0", n)
	}
}

// TestEVIMatchesMapIndex checks the run log against the plain
// edge -> leaves map of Definition 5 on random registrations: leaves
// with one to three undetermined edges drawn from a small shared pool,
// so runs both extend across consecutive leaves and break.
func TestEVIMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tr := New(2)
		root := tr.Node(nil, 0)
		tr.Link(root)
		tr.Pin(root)
		evi := NewEVI()
		want := make(map[graph.Edge][]*Node)
		pool := 1 + rng.Intn(8)
		for i := 0; i < 1+rng.Intn(60); i++ {
			leaf := tr.Node(root, graph.VertexID(i+1))
			tr.Link(leaf)
			for _, j := range rng.Perm(pool)[:1+rng.Intn(min(3, pool))] {
				e := graph.Edge{U: graph.VertexID(100 + j), V: graph.VertexID(j)}
				evi.Add(e, leaf)
				want[e.Normalize()] = append(want[e.Normalize()], leaf)
			}
		}
		if evi.Len() != len(want) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, evi.Len(), len(want))
		}
		for _, e := range evi.Edges() {
			if got := evi.Candidates(e); !reflect.DeepEqual(got, want[e]) {
				t.Fatalf("trial %d: Candidates(%v) = %v, want %v", trial, e, got, want[e])
			}
		}
		for _, e := range evi.Edges() {
			if rng.Intn(2) == 0 {
				continue
			}
			live := 0
			for _, n := range want[e] {
				if !n.Dead() {
					live++
				}
			}
			if got := evi.Fail(e, tr); got != live {
				t.Fatalf("trial %d: Fail(%v) = %d, want %d", trial, e, got, live)
			}
		}
	}
}
