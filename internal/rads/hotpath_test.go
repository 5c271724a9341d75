package rads

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// TestLockFreeViewStress drives the lock-free view reads against every
// concurrent writer at once: four pool workers probe the shared view
// while split-round shards (a tiny HugeFrontier) fetch and pin, every
// flush drops the unpinned cache (DisableCache), and a tight budget
// keeps charges, releases and small flush segments going. Counts must
// still match the oracle; -race checks the publication of fetched lists.
func TestLockFreeViewStress(t *testing.T) {
	g := gen.PowerLaw(300, 6, 2.5, 100, 41)
	part := partition.KWay(g, 4, 3)
	for _, p := range pattern.QuerySet()[:5] {
		want := oracleCount(g, p)
		res, err := Run(part, p, Config{
			DisableSME:   true,
			Workers:      4,
			HugeFrontier: 2,
			DisableCache: true,
			Budget:       cluster.NewMemBudget(part.M, 256<<10),
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d", p.Name, res.Total, want)
		}
		if res.FrontierSplits == 0 {
			t.Errorf("%s: no frontier split fired", p.Name)
		}
	}
}

// TestViewProbeAllocFree pins the probe path of the R-Meef inner loop
// at zero allocations for owned, cached and absent vertices.
func TestViewProbeAllocFree(t *testing.T) {
	g := gen.Grid(4, 4)
	part := mustPartition(t, g, 2)
	v := newView(&engine{g: g, part: part}, 0)
	var owned, cached, absent graph.VertexID = -1, -1, -1
	for x := graph.VertexID(0); int(x) < g.NumVertices(); x++ {
		switch {
		case part.Owner[x] == 0:
			owned = x
		case cached < 0:
			cached = x
		default:
			absent = x
		}
	}
	if owned < 0 || absent < 0 {
		t.Fatal("partition left machine 0 without owned or two foreign vertices")
	}
	if err := v.insertPinned(cached, g.Adj(cached)); err != nil {
		t.Fatal(err)
	}
	var known [3]bool
	probe := func() {
		for i, x := range [3]graph.VertexID{owned, cached, absent} {
			_, known[i] = v.adjKnown(x)
		}
	}
	if n := testing.AllocsPerRun(1000, probe); n != 0 {
		t.Errorf("view probe allocates %.1f times per run, want 0", n)
	}
	if known != [3]bool{true, true, false} {
		t.Errorf("known (owned, cached, absent) = %v, want [true true false]", known)
	}
}

// TestProximityGroupsMatchesMapVersion: the array-based grouping must
// form exactly the groups, in the same order, as the map-based
// formulation it replaced, kept below as the reference.
func TestProximityGroupsMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.PowerLaw(200+rng.Intn(200), 6, 2.5, 50, rng.Int63())
		case 1:
			g = gen.Community(3+rng.Intn(4), 10+rng.Intn(10), 0.3, rng.Int63())
		default:
			g = gen.Grid(5+rng.Intn(10), 5+rng.Intn(10))
		}
		var cands []graph.VertexID
		keep := rng.Float64()
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Float64() < keep {
				cands = append(cands, graph.VertexID(v))
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		est := func(v graph.VertexID) int64 { return int64(1 + g.Degree(v)) }
		target := int64(1 + rng.Intn(300))
		got := proximityGroups(g, cands, est, target)
		want := proximityGroupsMap(g, cands, est, target)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d vertices, %d candidates, target %d):\ngot  %v\nwant %v",
				trial, g.NumVertices(), len(cands), target, got, want)
		}
	}
}

// proximityGroupsMap is the map-based proximity grouping that
// proximityGroups replaced, kept as its reference.
func proximityGroupsMap(g graph.Store, cands []graph.VertexID, est func(graph.VertexID) int64, target int64) [][]graph.VertexID {
	remaining := make(map[graph.VertexID]bool, len(cands))
	for _, v := range cands {
		remaining[v] = true
	}
	var groups [][]graph.VertexID
	sorted := append([]graph.VertexID(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, seed := range sorted {
		if !remaining[seed] {
			continue
		}
		delete(remaining, seed)
		rg := []graph.VertexID{seed}
		phi := est(seed)
		adjSet := make(map[graph.VertexID]bool)
		frontier := make(map[graph.VertexID]int)
		grow := func(w graph.VertexID) {
			for _, x := range g.Adj(w) {
				if adjSet[x] {
					continue
				}
				adjSet[x] = true
				for _, y := range g.Adj(x) {
					if remaining[y] {
						frontier[y]++
					}
				}
			}
		}
		grow(seed)
		for phi < target {
			best, bestScore := graph.VertexID(-1), -1.0
			for v, c := range frontier {
				score := float64(c) / float64(len(g.Adj(v)))
				if score > bestScore || (score == bestScore && v < best) {
					best, bestScore = v, score
				}
			}
			if best < 0 {
				break
			}
			cost := est(best)
			if phi+cost > target {
				break
			}
			delete(remaining, best)
			delete(frontier, best)
			rg = append(rg, best)
			phi += cost
			grow(best)
		}
		groups = append(groups, rg)
	}
	return groups
}
