package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/rads"
	"rads/internal/service"
)

// kinds are the cluster message kinds a query exchanges; each gets its
// own call, handle and wire metrics.
var kinds = []string{"runQuery", "fetchV", "verifyE", "checkR", "shareR"}

// phases are the R-Meef phases the engine's profile reports, each as
// machine time per op.
var phases = []string{"group", "grouping", "steal", "sme", "fetchV", "verifyE"}

// perLayerUnits lists every per-layer metric a traced run prints, with
// its unit; BENCHMARK.json's per_layer list is the same set. Metrics of
// a layer a workload does not use read 0.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"gen.graph_s": "s", "partition.kway_s": "s", "snapshot.write_s": "s",
		"snapshot.open_s": "s", "service.open_s": "s", "cluster.boot_s": "s",
		"bench.oracle_s": "s",

		"service.submit_us": "us", "service.queued_ms": "ms", "service.outside_engine_ms": "ms",

		"engine.run_ms": "ms", "rads.tree_nodes_per_op": "count", "rads.useful_frac": "frac",
		"rads.steals_per_op": "count", "rads.frontier_splits_per_op": "count",
		"localenum.count_ms": "ms", "comm_kb_per_op": "KB",

		"graph.kernel.merge_per_op": "count", "graph.kernel.gallop_per_op": "count",
		"graph.kernel.kway_per_op": "count", "graph.intersect_ns": "ns",

		"cluster.retries_per_op": "count", "cluster.timeouts_per_op": "count",
		"rads.dispatch_wait_ms": "ms", "rads.fold_ms": "ms",

		"census.run_ms": "ms", "census.subgraphs_per_s": "1/s",
		"jobs.queue_ms": "ms", "jobs.finish_ms": "ms",

		"go.alloc_mb_per_op": "MB", "go.allocs_per_op": "count", "go.gc_cycles_per_op": "count",
		"proc.cpu_s_per_op": "s", "bench.trace_overhead_frac": "frac", "failed_frac": "frac",
	}
	for _, p := range phases {
		u["rads.phase."+p+"_ms"] = "ms"
	}
	for _, k := range kinds {
		u["cluster.calls_per_op."+k] = "count"
		u["cluster.call_ms."+k] = "ms"
		u["rads.handle_ms."+k] = "ms"
		u["cluster.wire_ms."+k] = "ms"
	}
	return u
}

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 1 << 19

// span is one timed interval at a layer boundary. Spans of one op share
// Op: the service query id (offset by the graph instance) or the job id.
type span struct {
	Op   uint64 `json:"op"`
	Name string `json:"name"`
	// Kind is the message kind of "call" and "handle" spans.
	Kind string `json:"kind,omitempty"`
	// Machine is the caller of a call and the host of a handle
	// (cluster.Coordinator = -1 for the coordinator); Peer the other end.
	Machine int   `json:"machine"`
	Peer    int   `json:"peer"`
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
}

// layers collects a traced window: sums keyed by metric name (per-op
// and per-call quantities) and spans. Recording happens only while on
// is set; the transport and handler decorators exist only in a run
// built with tracing, so an untraced run measures the bare program.
type layers struct {
	traced bool
	on     atomic.Bool
	base   time.Time
	// curOp is the cluster query whose runQuery calls are in flight.
	// The coordinator serializes cluster queries, so every data-plane
	// call between its dispatch and the next one belongs to it.
	curOp atomic.Uint64
	// Retries and timeouts are counted in every run: the hooks are part
	// of the cluster wiring itself.
	retries, timeouts atomic.Int64

	mu      sync.Mutex
	sums    map[string]float64
	spans   []span
	dropped int64
}

func newLayers(traced bool) *layers {
	return &layers{traced: traced, base: time.Now(), sums: map[string]float64{}}
}

func (l *layers) ns(t time.Time) int64 { return t.Sub(l.base).Nanoseconds() }

// add is one quantity added to the sum of a metric.
type add struct {
	name string
	v    float64
}

// record adds to the sums and keeps the spans.
func (l *layers) record(spans []span, adds ...add) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range adds {
		l.sums[a.name] += a.v
	}
	for _, s := range spans {
		if len(l.spans) >= maxSpans {
			l.dropped++
			continue
		}
		l.spans = append(l.spans, s)
	}
}

// query records one completed service query: the service, engine and
// R-Meef profile numbers of its Result, and its op/submit/engine spans.
func (l *layers) query(op uint64, query string, t0, submitted, end time.Time, res service.Result) {
	lat := end.Sub(t0)
	engine := time.Duration(res.Seconds * float64(time.Second))
	adds := []add{
		{"service.submit_us", float64(submitted.Sub(t0).Microseconds())},
		{"service.queued_ms", ms(res.Queued)},
		{"service.outside_engine_ms", ms(lat - engine)},
		{"engine.run_ms", ms(engine)},
		{"floor.engine_ms." + query, ms(engine)},
		{"floor.ops." + query, 1},
		{"rads.tree_nodes_per_op", float64(res.TreeNodes)},
		{"rads.embeddings", float64(res.Total)},
		{"comm_kb_per_op", res.CommMB * 1024},
	}
	if p := res.Profile; p != nil {
		adds = append(adds, add{"rads.steals_per_op", float64(p.Steals)})
		for _, ph := range p.Phases {
			if name, ok := strings.CutPrefix(ph.Name, "execute/"); ok {
				adds = append(adds, add{"rads.phase." + name + "_ms", ph.Seconds * 1e3})
			}
		}
	}
	queuedAt := submitted.Add(res.Queued)
	l.record([]span{
		{Op: op, Name: "op", Machine: -1, Peer: -1, StartNs: l.ns(t0), DurNs: lat.Nanoseconds()},
		{Op: op, Name: "service.submit", Machine: -1, Peer: -1, StartNs: l.ns(t0), DurNs: submitted.Sub(t0).Nanoseconds()},
		{Op: op, Name: "engine.run", Machine: -1, Peer: -1, StartNs: l.ns(queuedAt), DurNs: engine.Nanoseconds()},
	}, adds...)
}

// tracedTransport decorates a cluster transport (the coordinator's or a
// machine's client) with a call span per exchange.
type tracedTransport struct {
	cluster.Transport
	l *layers
}

func (t tracedTransport) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if !t.l.on.Load() {
		return t.Transport.Call(from, to, req)
	}
	op := t.l.curOp.Load()
	if rq, ok := req.(*rads.RunQueryRequest); ok {
		op = rq.QueryID
		t.l.curOp.Store(op)
	}
	kind := cluster.Kind(req)
	start := time.Now()
	resp, err := t.Transport.Call(from, to, req)
	d := time.Since(start)
	t.l.record([]span{{Op: op, Name: "call", Kind: kind, Machine: from, Peer: to, StartNs: t.l.ns(start), DurNs: d.Nanoseconds()}},
		add{"cluster.calls_per_op." + kind, 1}, add{"cluster.call_ms." + kind, ms(d)})
	return resp, err
}

// transport returns tr decorated when the run is traced.
func (l *layers) transport(tr cluster.Transport) cluster.Transport {
	if !l.traced {
		return tr
	}
	return tracedTransport{tr, l}
}

// handler decorates a machine's daemon entry point with a handle span
// per request, when the run is traced.
func (l *layers) handler(id int, h cluster.Handler) cluster.Handler {
	if !l.traced {
		return h
	}
	return func(from int, req cluster.Message) (cluster.Message, error) {
		if !l.on.Load() {
			return h(from, req)
		}
		op := l.curOp.Load()
		if rq, ok := req.(*rads.RunQueryRequest); ok {
			op = rq.QueryID
		}
		kind := cluster.Kind(req)
		start := time.Now()
		resp, err := h(from, req)
		d := time.Since(start)
		l.record([]span{{Op: op, Name: "handle", Kind: kind, Machine: id, Peer: from, StartNs: l.ns(start), DurNs: d.Nanoseconds()}},
			add{"rads.handles." + kind, 1}, add{"rads.handle_ms." + kind, ms(d)})
		return resp, err
	}
}

// pathStats is the mean self time per op of each layer on the blocking
// path of a cluster query: the wait before dispatch (service admission,
// the ClusterEngine lock, planning), the critical runQuery call's time
// on the wire, its handler's own time, the data-plane calls that handler
// blocked on, and the fold after the last reply.
type pathStats struct {
	Ops        int     `json:"ops"`
	DispatchMs float64 `json:"dispatch_ms"`
	WireMs     float64 `json:"runquery_wire_ms"`
	HandleMs   float64 `json:"handle_self_ms"`
	DataMs     float64 `json:"dataplane_calls_ms"`
	FoldMs     float64 `json:"fold_ms"`
}

// blockingPath derives pathStats from the spans of every op that
// dispatched runQuery calls. The critical machine is the one whose
// runQuery reply came last.
func (l *layers) blockingPath() pathStats {
	l.mu.Lock()
	byOp := map[uint64][]span{}
	for _, s := range l.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	l.mu.Unlock()
	var p pathStats
	for _, ss := range byOp {
		var op, crit, handle *span
		first := int64(-1)
		for i := range ss {
			s := &ss[i]
			switch {
			case s.Name == "op":
				op = s
			case s.Name == "call" && s.Kind == "runQuery":
				if first < 0 || s.StartNs < first {
					first = s.StartNs
				}
				if crit == nil || s.StartNs+s.DurNs > crit.StartNs+crit.DurNs {
					crit = s
				}
			}
		}
		if op == nil || crit == nil {
			continue
		}
		for i := range ss {
			if s := &ss[i]; s.Name == "handle" && s.Kind == "runQuery" && s.Machine == crit.Peer {
				handle = s
			}
		}
		if handle == nil {
			continue
		}
		covered := covered(ss, crit.Peer, handle.StartNs, handle.StartNs+handle.DurNs)
		p.Ops++
		p.DispatchMs += float64(first-op.StartNs) / 1e6
		p.WireMs += float64(crit.DurNs-handle.DurNs) / 1e6
		p.HandleMs += float64(handle.DurNs-covered) / 1e6
		p.DataMs += float64(covered) / 1e6
		p.FoldMs += float64(op.StartNs+op.DurNs-crit.StartNs-crit.DurNs) / 1e6
	}
	if n := float64(p.Ops); n > 0 {
		p.DispatchMs /= n
		p.WireMs /= n
		p.HandleMs /= n
		p.DataMs /= n
		p.FoldMs /= n
	}
	return p
}

// covered is how much of [lo, hi) the data-plane calls made by machine
// m cover (their union, clipped to the interval).
func covered(ss []span, m int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range ss {
		if s.Name == "call" && s.Kind != "runQuery" && s.Machine == m {
			a, b := max(s.StartNs, lo), min(s.StartNs+s.DurNs, hi)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// perLayer turns a traced window into the per-layer metrics. plain is
// the untraced window of the same run; setup holds each set-up layer's
// times over the repetitions; floor is the oracle's time per op type.
func perLayer(sys system, win, plain window, setup map[string][]float64, floor []time.Duration, l *layers, seed int64) map[string]metric {
	units := perLayerUnits()
	l.mu.Lock()
	sums := make(map[string]float64, len(l.sums))
	for k, v := range l.sums {
		sums[k] = v
	}
	l.mu.Unlock()
	for k, v := range win.deltas {
		sums[k] += v
	}
	ops := float64(len(win.latMs))
	out := make(map[string]metric, len(units))
	set := func(name string, v float64) { out[name] = metric{v, units[name]} }
	for name := range units {
		set(name, ratio(sums[name], ops))
	}
	for name, v := range setup {
		set(name, median(v))
	}
	for _, k := range kinds {
		calls := sums["cluster.calls_per_op."+k]
		call := ratio(sums["cluster.call_ms."+k], calls)
		handle := ratio(sums["rads.handle_ms."+k], sums["rads.handles."+k])
		set("cluster.call_ms."+k, call)
		set("rads.handle_ms."+k, handle)
		set("cluster.wire_ms."+k, call-handle)
	}
	set("rads.useful_frac", ratio(sums["rads.embeddings"], sums["rads.tree_nodes_per_op"]))
	set("census.subgraphs_per_s", ratio(sums["census.subgraphs"], sums["census.run_ms"]/1e3))
	var floorMs float64
	for _, d := range floor {
		floorMs += ms(d)
	}
	set("localenum.count_ms", ratio(floorMs, float64(len(floor))))
	set("graph.intersect_ns", intersectNs(sys.graph(), seed))
	set("bench.trace_overhead_frac", ratio(win.opsPerS(), plain.opsPerS())-1)
	set("failed_frac", ratio(float64(win.failed), ops))
	path := l.blockingPath()
	set("rads.dispatch_wait_ms", path.DispatchMs)
	set("rads.fold_ms", path.FoldMs)
	return out
}

// intersectNs times Kernels.IntersectFrom, the candidate-extension
// kernel, on adjacency pairs sampled from g: the mean nanoseconds of one
// intersection of two neighbours' lists above the smaller id.
func intersectNs(g graph.Store, seed int64) float64 {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ a, b []graph.VertexID }
	var pairs []pair
	var lbs []graph.VertexID
	for tries := 0; len(pairs) < 4096 && tries < 1<<16; tries++ {
		u := graph.VertexID(rng.Intn(n))
		adj := g.Adj(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[rng.Intn(len(adj))]
		pairs = append(pairs, pair{adj, g.Adj(v)})
		lbs = append(lbs, min(u, v))
	}
	if len(pairs) == 0 {
		return 0
	}
	k := graph.KernelsFor(g)
	dst := make([]graph.VertexID, 0, 1024)
	var calls int
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i, p := range pairs {
			dst = k.IntersectFrom(dst[:0], p.a, p.b, lbs[i])
		}
		calls += len(pairs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// floorRow compares, for one query, the engine's mean run time in the
// traced window with the single-machine localenum count of the oracle.
type floorRow struct {
	Query       string  `json:"query"`
	EngineMs    float64 `json:"engine_run_ms"`
	LocalenumMs float64 `json:"localenum_count_ms"`
	Gap         float64 `json:"gap"`
}

// write emits the traced run: provenance, shape, metrics, the floor
// table, the blocking path and every kept span.
func (l *layers) write(w io.Writer, rep *report, sys system, floor []time.Duration) error {
	path := l.blockingPath()
	perQuery := map[string][]time.Duration{}
	for op, d := range floor {
		q, _, _ := strings.Cut(sys.opName(op), "@")
		perQuery[q] = append(perQuery[q], d)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var rows []floorRow
	for q, ds := range perQuery {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		r := floorRow{Query: q, LocalenumMs: ms(sum) / float64(len(ds))}
		r.EngineMs = ratio(l.sums["floor.engine_ms."+q], l.sums["floor.ops."+q])
		r.Gap = ratio(r.EngineMs, r.LocalenumMs)
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Query < rows[j].Query })
	return json.NewEncoder(w).Encode(map[string]any{
		"provenance":    rep.Provenance,
		"shape":         rep.Shape,
		"metrics":       rep.Metrics,
		"floor":         rows,
		"blocking_path": path,
		"spans_dropped": l.dropped,
		"spans":         l.spans,
	})
}
