package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rads/internal/census"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/jobs"
	"rads/internal/localenum"
	"rads/internal/pattern"
)

// censusK is the motif size of every census job.
const censusK = 5

// setupCensus builds census-batch: the RoadNet analog and a job manager
// running one census at a time. The workload bypasses rads, the cluster,
// the service and the intersection kernels (ESU tests edges with HasEdge
// on a working set 25 times larger), so every RADS-path optimisation
// should leave it flat.
func setupCensus(cfg config, times map[string]float64, _ *layers) (system, error) {
	side := 192
	if cfg.tiny {
		side = 24
	}
	s := &censusSystem{sub: map[string][]int64{}}
	timed(times, "gen.graph_s", func() error {
		s.g = gen.RoadNet(side, side, cfg.seed)
		return nil
	})
	s.mgr = jobs.NewManager(jobs.Config{MaxConcurrent: 1})
	return s, nil
}

// censusSystem runs k=5 census jobs through jobs.Manager, wired as the
// serving binary's /jobs endpoint wires them, and checks each histogram
// against subgraph counts made by localenum.
type censusSystem struct {
	g   *graph.Graph
	mgr *jobs.Manager
	// patterns are the connected k-vertex patterns; want their
	// subgraph counts in g.
	patterns []*pattern.Pattern
	index    map[string]int // CanonicalKey -> position in patterns
	want     []int64
	classes  int // census classes of the last checked job

	mu sync.Mutex
	// sub caches, per census class key C, s(P, C) for every pattern P:
	// how many of C's spanning edge subsets are isomorphic to P.
	sub map[string][]int64
}

func (s *censusSystem) opTypes() int       { return 1 }
func (s *censusSystem) opName(int) string  { return fmt.Sprintf("census-k%d", censusK) }
func (s *censusSystem) graph() graph.Store { return s.g }
func (s *censusSystem) counters() map[string]float64 {
	return map[string]float64{}
}

// oracle counts every connected k-vertex pattern in g with localenum.
// A census histogram is correct when, for every pattern P,
// count(P) = sum over classes C of hist(C) * s(P, C).
func (s *censusSystem) oracle(corrupt bool) []time.Duration {
	start := time.Now()
	s.patterns = connectedPatterns(censusK)
	s.index = map[string]int{}
	s.want = make([]int64, len(s.patterns))
	for i, p := range s.patterns {
		s.index[p.CanonicalKey()] = i
		s.want[i] = localenum.Count(s.g, p, localenum.Options{})
	}
	if corrupt {
		s.want[0]++
	}
	return []time.Duration{time.Since(start)}
}

func (s *censusSystem) do(ctx context.Context, _ int, lt *layers) error {
	var started, returned time.Time
	t0 := time.Now()
	j, err := s.mgr.Submit("census", fmt.Sprintf("census k=%d", censusK), func(ctx context.Context, up *jobs.Update) (any, error) {
		started = time.Now()
		res, err := census.Run(ctx, s.g, census.Config{
			K:               censusK,
			Workers:         runtime.NumCPU(),
			OnProgress:      func(p census.Progress) { up.Progress(jobProgress(p)) },
			ProgressEvery:   100 * time.Millisecond,
			OnCheckpoint:    func(h census.Histogram, _ census.Progress) { up.Checkpoint(h) },
			CheckpointEvery: 250 * time.Millisecond,
			Trace:           up.Trace(),
		})
		returned = time.Now()
		return res, err
	})
	if err != nil {
		return err
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	end := time.Now()
	out, _ := j.Result()
	if out.State != jobs.StateCompleted {
		return fmt.Errorf("census job %d ended %s: %v", j.ID(), out.State, out.Err)
	}
	res := out.Value.(*census.Result)
	if lt.on.Load() {
		lt.record([]span{
			{Op: j.ID(), Name: "op", Machine: -1, Peer: -1, StartNs: lt.ns(t0), DurNs: end.Sub(t0).Nanoseconds()},
			{Op: j.ID(), Name: "jobs.queue", Machine: -1, Peer: -1, StartNs: lt.ns(t0), DurNs: started.Sub(t0).Nanoseconds()},
			{Op: j.ID(), Name: "census.run", Machine: -1, Peer: -1, StartNs: lt.ns(started), DurNs: returned.Sub(started).Nanoseconds()},
			{Op: j.ID(), Name: "jobs.finish", Machine: -1, Peer: -1, StartNs: lt.ns(returned), DurNs: end.Sub(returned).Nanoseconds()},
		},
			add{"census.run_ms", ms(returned.Sub(started))},
			add{"census.subgraphs", float64(res.Subgraphs)},
			add{"jobs.queue_ms", ms(started.Sub(t0))},
			add{"jobs.finish_ms", ms(end.Sub(returned))})
	}
	return s.check(res.Histogram)
}

func jobProgress(p census.Progress) jobs.Progress {
	return jobs.Progress{
		VerticesDone:   p.VerticesDone,
		TotalVertices:  p.TotalVertices,
		SubgraphsSeen:  p.SubgraphsSeen,
		ElapsedSeconds: p.Elapsed.Seconds(),
	}
}

// check tests the histogram against the oracle's pattern counts.
func (s *censusSystem) check(h census.Histogram) error {
	got := make([]int64, len(s.patterns))
	for key, n := range h {
		sub, err := s.subCounts(key)
		if err != nil {
			return err
		}
		for i, c := range sub {
			got[i] += n * c
		}
	}
	s.mu.Lock()
	s.classes = len(h)
	s.mu.Unlock()
	for i, p := range s.patterns {
		if got[i] != s.want[i] {
			return fmt.Errorf("%w: the histogram implies %d subgraphs %s, localenum counts %d",
				errMismatch, got[i], p.CanonicalKey(), s.want[i])
		}
	}
	return nil
}

// subCounts returns s(P, C) for every pattern P, found by brute force
// over the edge subsets of class C and compared by CanonicalKey.
func (s *censusSystem) subCounts(key string) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.sub[key]; ok {
		return sub, nil
	}
	c, err := decodeKey(key)
	if err != nil {
		return nil, err
	}
	if c.N() != censusK || !c.IsConnected() {
		return nil, fmt.Errorf("census class %q is not a connected %d-vertex graph", key, censusK)
	}
	edges := c.Edges()
	sub := make([]int64, len(s.patterns))
	for mask := 1; mask < 1<<len(edges); mask++ {
		if i, ok := s.index[subgraph(censusK, edges, mask).CanonicalKey()]; ok {
			sub[i]++
		}
	}
	s.sub[key] = sub
	return sub, nil
}

func (s *censusSystem) shape() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	oracle := map[string]int64{}
	for i, p := range s.patterns {
		oracle[p.CanonicalKey()] = s.want[i]
	}
	return map[string]any{"vertices": s.g.NumVertices(), "edges": s.g.NumEdges(),
		"max_degree": s.g.MaxDegree(), "census_classes": s.classes, "oracle_counts": oracle}
}

func (s *censusSystem) close() { s.mgr.Close() }

// connectedPatterns returns one pattern per isomorphism class of
// connected graphs on k vertices, ordered by CanonicalKey.
func connectedPatterns(k int) []*pattern.Pattern {
	var all [][2]pattern.VertexID
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			all = append(all, [2]pattern.VertexID{pattern.VertexID(i), pattern.VertexID(j)})
		}
	}
	seen := map[string]*pattern.Pattern{}
	for mask := 1; mask < 1<<len(all); mask++ {
		p := subgraph(k, all, mask)
		if key := p.CanonicalKey(); seen[key] == nil && p.IsConnected() {
			seen[key] = p
		}
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]*pattern.Pattern, len(keys))
	for i, key := range keys {
		out[i] = seen[key]
	}
	return out
}

// subgraph is the k-vertex pattern with the edges mask selects.
func subgraph(k int, edges [][2]pattern.VertexID, mask int) *pattern.Pattern {
	var pairs []int
	for b, e := range edges {
		if mask>>b&1 == 1 {
			pairs = append(pairs, int(e[0]), int(e[1]))
		}
	}
	return pattern.New("", k, pairs...)
}

// decodeKey rebuilds a pattern from its CanonicalKey, "n:bits", where
// bits is the strict lower triangle of the adjacency matrix row by row
// (row i lists columns 0..i-1).
func decodeKey(key string) (*pattern.Pattern, error) {
	ns, bits, ok := strings.Cut(key, ":")
	n, err := strconv.Atoi(ns)
	if !ok || err != nil || n < 1 || len(bits) != n*(n-1)/2 {
		return nil, fmt.Errorf("malformed class key %q", key)
	}
	var pairs []int
	b := 0
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			switch bits[b] {
			case '1':
				pairs = append(pairs, i, j)
			case '0':
			default:
				return nil, fmt.Errorf("malformed class key %q", key)
			}
			b++
		}
	}
	return pattern.New("", n, pairs...), nil
}
