package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
	"rads/internal/service"
	"rads/internal/snapshot"
)

// machines is the simulated cluster size of both query workloads.
const machines = 4

// workload is one named input set and the way the benchmark drives it.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients int
	// setup builds the system from cfg.seed, recording each set-up
	// layer's seconds in times.
	setup func(cfg config, times map[string]float64, lt *layers) (system, error)
}

var workloads = []*workload{
	{name: "powerlaw-inproc", clients: 1, setup: setupPowerLaw},
	{name: "community-tcp", clients: 2, setup: setupCommunity},
	{name: "census-batch", clients: 1, setup: setupCensus},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// timed runs f and adds its seconds to times[name].
func timed(times map[string]float64, name string, f func() error) error {
	start := time.Now()
	err := f()
	times[name] += time.Since(start).Seconds()
	return err
}

// setupPowerLaw builds powerlaw-inproc: Chung-Lu graphs served by the
// resident in-process Service (RADS, KWay into 4 machines). Hub-made
// region groups, stealing, fetchV and verifyE do nearly all the work.
// A run serves many independently seeded graphs: one graph of this size
// varies too much from seed to seed (q5's count, which sets the median
// op, varies up to sevenfold; the median op spread 22% over eight seeds) for
// the figures of two sets of seeds to agree.
func setupPowerLaw(cfg config, times map[string]float64, _ *layers) (system, error) {
	instances, n, tri := 32, 1500, 375
	if cfg.tiny {
		instances, n, tri = 2, 300, 75
	}
	s := &querySystem{queries: pattern.QuerySet()[:5]}
	for i := 0; i < instances; i++ {
		var g *graph.Graph
		var part *partition.Partition
		timed(times, "gen.graph_s", func() error {
			g = gen.PowerLaw(n, 6, 3.1, tri, cfg.seed*int64(instances)+int64(i))
			return nil
		})
		timed(times, "partition.kway_s", func() error {
			part = partition.KWay(g, machines, service.DefaultPartitionSeed)
			return nil
		})
		var svc *service.Service
		if err := timed(times, "service.open_s", func() (err error) {
			svc, err = service.OpenPartitioned(part, service.Config{})
			return err
		}); err != nil {
			s.close()
			return nil, err
		}
		s.graphs = append(s.graphs, g)
		s.svcs = append(s.svcs, svc)
	}
	return s, nil
}

// setupCommunity builds community-tcp: the DBLP analog at scale 8,
// written to a snapshot, served by 4 rads.Machine daemons (one shard and
// one enumeration worker each) behind loopback TCP listeners, with the
// Service's RADS engine replaced by the cluster coordinator. Queries are
// cheap, so the wire, dispatch, fold and the coordinator's lock take a
// large share of each.
func setupCommunity(cfg config, times map[string]float64, lt *layers) (system, error) {
	k, size := 288, 20
	if cfg.tiny {
		k, size = 24, 12
	}
	var g *graph.Graph
	var part *partition.Partition
	timed(times, "gen.graph_s", func() error {
		g = gen.Community(k, size, 0.22, cfg.seed)
		return nil
	})
	timed(times, "partition.kway_s", func() error {
		part = partition.KWay(g, machines, service.DefaultPartitionSeed)
		return nil
	})
	dir, err := os.MkdirTemp(cfg.dir, "snapshot-")
	if err != nil {
		return nil, err
	}
	s := &querySystem{queries: pattern.QuerySet()[:5], graphs: []*graph.Graph{g}}
	s.closers = append(s.closers, func() { os.RemoveAll(dir) })
	fail := func(err error) (system, error) {
		s.close()
		return nil, err
	}
	if err := timed(times, "snapshot.write_s", func() error {
		return snapshot.Write(dir, part, "community")
	}); err != nil {
		return fail(err)
	}
	var coord *partition.Partition
	var avgDeg float64
	shards := make([]*partition.Partition, machines)
	if err := timed(times, "snapshot.open_s", func() error {
		p, man, err := snapshot.OpenPartition(dir)
		if err != nil {
			return err
		}
		coord, avgDeg = p, man.AvgDegree
		for id := range shards {
			if shards[id], _, err = snapshot.OpenShard(dir, id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	var svc *service.Service
	if err := timed(times, "service.open_s", func() (err error) {
		svc, err = service.OpenPartitioned(coord, service.Config{})
		return err
	}); err != nil {
		return fail(err)
	}
	s.svcs = append(s.svcs, svc)
	if err := timed(times, "cluster.boot_s", func() error {
		return bootCluster(s, coord, shards, avgDeg, lt)
	}); err != nil {
		return fail(err)
	}
	return s, nil
}

// bootCluster starts one TCP listener and rads.Machine daemon per shard
// and registers the cluster coordinator as s's RADS engine, wired as
// radsworker and radserve -cluster wire them: TCP clients with per-call
// deadlines behind a RetryTransport.
func bootCluster(s *querySystem, coord *partition.Partition, shards []*partition.Partition, avgDeg float64, lt *layers) error {
	var spec cluster.ClusterSpec
	servers := make([]*cluster.TCPServer, len(shards))
	for id := range shards {
		srv, err := cluster.NewTCPServer("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { srv.Close() })
		servers[id] = srv
		spec.Machines = append(spec.Machines, srv.Addr())
	}
	// Closers run in reverse, so every client below closes before the
	// listeners it talks to.
	client := func(metrics *cluster.Metrics, timeout time.Duration) cluster.Transport {
		tcp := cluster.NewTCPClient(spec, metrics)
		tcp.SetCallTimeout(timeout)
		tcp.SetKindTimeout("runQuery", 0) // a query runs as long as it runs
		tcp.SetTimeoutObserver(func(string) { lt.timeouts.Add(1) })
		tr := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{
			MaxAttempts: 3,
			OnRetry:     func(string) { lt.retries.Add(1) },
		})
		s.closers = append(s.closers, func() { tr.Close() })
		return lt.transport(tr)
	}
	for id, shard := range shards {
		metrics := cluster.NewMetrics(spec.M())
		d := rads.NewMachine(id, shard, client(metrics, 10*time.Second), rads.MachineOptions{
			AvgDegree: avgDeg, Workers: 1, Metrics: metrics,
		})
		servers[id].Register(id, lt.handler(id, d.Handle))
	}
	ce := rads.NewClusterEngine(client(nil, 5*time.Second), spec.M())
	s.closers = append(s.closers, func() { ce.Close() })
	if err := ce.WaitReady(coord, 30*time.Second); err != nil {
		return err
	}
	return s.svcs[0].RegisterEngineObject(ce)
}

// querySystem serves q1-q5 through resident Services, one per graph.
type querySystem struct {
	graphs  []*graph.Graph // the generated graphs, which the oracle counts on
	svcs    []*service.Service
	queries []*pattern.Pattern
	want    [][]int64 // [graph][query]
	// closers release what set-up started, run in reverse order.
	closers []func()
}

func (s *querySystem) opTypes() int { return len(s.svcs) * len(s.queries) }

// opName is the query's name, suffixed with its graph when a run serves
// several.
func (s *querySystem) opName(op int) string {
	q := s.queries[op%len(s.queries)].Name
	if len(s.svcs) == 1 {
		return q
	}
	return fmt.Sprintf("%s@g%d", q, op/len(s.queries))
}

func (s *querySystem) oracle(corrupt bool) []time.Duration {
	per := make([]time.Duration, s.opTypes())
	s.want = make([][]int64, len(s.graphs))
	for i, g := range s.graphs {
		s.want[i] = make([]int64, len(s.queries))
		for j, q := range s.queries {
			start := time.Now()
			s.want[i][j] = localenum.Count(g, q, localenum.Options{})
			per[i*len(s.queries)+j] = time.Since(start)
		}
	}
	if corrupt {
		s.want[0][0]++
	}
	return per
}

func (s *querySystem) do(ctx context.Context, op int, lt *layers) error {
	inst, qi := op/len(s.queries), op%len(s.queries)
	q := s.queries[qi]
	t0 := time.Now()
	h, err := s.svcs[inst].Submit(ctx, service.Query{Pattern: q, NoCache: true})
	if err != nil {
		return err
	}
	submitted := time.Now()
	res, err := h.Result(ctx)
	end := time.Now()
	if err != nil {
		return err
	}
	if lt.on.Load() {
		lt.query(uint64(inst)<<32|h.ID(), q.Name, t0, submitted, end, res)
	}
	if want := s.want[inst][qi]; res.Total != want || res.OOM {
		return fmt.Errorf("%w: %d embeddings (oom %v), oracle %d", errMismatch, res.Total, res.OOM, want)
	}
	return nil
}

func (s *querySystem) counters() map[string]float64 {
	out := map[string]float64{}
	for _, svc := range s.svcs {
		out["rads.frontier_splits_per_op"] += float64(svc.Stats().FrontierSplits)
	}
	return out
}

func (s *querySystem) shape() map[string]any {
	var edges []int64
	var vertices, maxDeg []int
	for _, g := range s.graphs {
		vertices = append(vertices, g.NumVertices())
		edges = append(edges, int64(g.NumEdges()))
		maxDeg = append(maxDeg, g.MaxDegree())
	}
	oracle := map[string][]int64{}
	for i := range s.want {
		for j, q := range s.queries {
			oracle[q.Name] = append(oracle[q.Name], s.want[i][j])
		}
	}
	return map[string]any{"graphs": len(s.graphs), "vertices": vertices, "edges": edges,
		"max_degree": maxDeg, "oracle_counts": oracle}
}

func (s *querySystem) graph() graph.Store { return s.graphs[0] }

func (s *querySystem) close() {
	for _, svc := range s.svcs {
		svc.Close()
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.svcs, s.closers = nil, nil
}
