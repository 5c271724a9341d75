package rads

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
)

// machine is one worker of the simulated cluster: it owns a partition,
// runs SM-E then R-Meef over its region groups, serves daemon requests
// from other machines, and steals work when idle. Within the machine,
// SM-E candidates and region groups fan out across a bounded pool of
// engine.workers() goroutines; each pool worker owns one reusable
// enumerator and one adjacency-cache view, so workers never contend on
// scratch state — only on the group queue and the merge of commutative
// counters.
type machine struct {
	e  *engine
	id int

	// view is the machine's local-knowledge discipline: own partition
	// plus the fetched-adjacency cache, shared by all pool workers so
	// each foreign vertex crosses the network once per machine, not
	// once per worker. Groups pin the lists they fetched for their
	// in-flight rounds (groupState.pinLog), so a concurrent group's
	// cache-pressure drop never invalidates them mid-use.
	view *view

	queue *groupQueue // unprocessed region groups (shared with daemon)

	// Results. distCount/distNodes and the compression accounting are
	// merged from per-group state under mu; smeCount/smeNodes are merged
	// from per-worker shards at the SM-E barrier.
	mu        sync.Mutex
	smeCount  int64
	distCount int64
	elapsed   time.Duration

	// Tree-node accounting: SM-E recursion nodes and R-Meef trie nodes.
	smeNodes  int64
	distNodes int64

	// Compression accounting.
	elCum, etCum   int64
	elPeak, etPeak int64

	groupsFormed int
	groupsStolen int

	// frontierSplits counts rounds expanded across the worker pool
	// because their frontier exceeded the HugeFrontier threshold.
	frontierSplits int64

	// embMu serializes OnEmbedding delivery within this machine so
	// streaming consumers observe one well-ordered stream per machine
	// regardless of Workers.
	embMu sync.Mutex

	// Memory-estimate sample from SM-E (Section 6): average embedding
	// trie nodes per processed candidate. Written once at the SM-E
	// barrier, read-only afterwards.
	avgNodesPerCandidate float64
}

func newMachine(e *engine, id int) *machine {
	return &machine{
		e:     e,
		id:    id,
		view:  newView(e, id),
		queue: newGroupQueue(),
	}
}

// emit hands one embedding to the configured callback, serialized per
// machine.
func (m *machine) emit(f []graph.VertexID) {
	m.embMu.Lock()
	m.e.cfg.OnEmbedding(m.id, f)
	m.embMu.Unlock()
}

// serveVerifyE answers daemon functionality (1) — edge-existence bits
// for edges the machine can see — from a partition, which may be the
// full graph (in-process) or a shard (remote daemon): either way the
// owned endpoint's adjacency list is complete, which is all HasEdge
// needs.
func serveVerifyE(part *partition.Partition, id int, r *cluster.VerifyERequest) (cluster.Message, error) {
	exists := make([]bool, len(r.Edges))
	for i, e := range r.Edges {
		if part.Owner[e.U] != int32(id) && part.Owner[e.V] != int32(id) {
			return nil, fmt.Errorf("machine %d asked to verify foreign edge %v", id, e)
		}
		exists[i] = part.G.HasEdge(e.U, e.V)
	}
	return &cluster.VerifyEResponse{Exists: exists}, nil
}

// serveFetchV answers daemon functionality (2) — adjacency lists of
// owned vertices.
func serveFetchV(part *partition.Partition, id int, r *cluster.FetchVRequest) (cluster.Message, error) {
	adj := make([][]graph.VertexID, len(r.Vertices))
	for i, v := range r.Vertices {
		if part.Owner[v] != int32(id) {
			return nil, fmt.Errorf("machine %d asked to fetch foreign vertex %d", id, v)
		}
		adj[i] = part.G.Adj(v)
	}
	return &cluster.FetchVResponse{Adj: adj}, nil
}

// handle is the daemon thread: it serves the four request kinds of
// Section 3.1 concurrently with the machine's own enumeration.
func (m *machine) handle(from int, req cluster.Message) (cluster.Message, error) {
	switch r := req.(type) {
	case *cluster.VerifyERequest:
		return serveVerifyE(m.e.part, m.id, r)
	case *cluster.FetchVRequest:
		return serveFetchV(m.e.part, m.id, r)
	case *cluster.CheckRRequest:
		return &cluster.CheckRResponse{Unprocessed: m.queue.Len()}, nil
	case *cluster.ShareRRequest:
		if g, ok := m.queue.Pop(); ok {
			return &cluster.ShareRResponse{OK: true, Group: g}, nil
		}
		return &cluster.ShareRResponse{OK: false}, nil
	default:
		return nil, fmt.Errorf("machine %d: unknown request %T", m.id, req)
	}
}

func (m *machine) run() (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: machine %d: %w", ErrAborted, m.id, err)
		}
	}()
	start := time.Now()
	defer func() { m.elapsed = time.Since(start) }()
	machSp := m.e.cfg.Trace.Start("execute/machine", m.id, -1)
	defer machSp.End()

	ustart := m.e.pl.Units[0].Piv
	span := m.e.p.Span(ustart)

	// Candidate set of the starting query vertex on this machine.
	var cands []graph.VertexID
	for _, v := range m.e.part.Vertices(m.id) {
		if m.e.g.Degree(v) >= m.e.p.Degree(ustart) {
			cands = append(cands, v)
		}
	}

	// Split into C1 (single-machine) and the rest by border distance
	// (Proposition 1).
	var c1, c2 []graph.VertexID
	if m.e.cfg.DisableSME {
		c2 = cands
	} else {
		bd := m.e.part.BorderDistances(m.id)
		for _, v := range cands {
			if int(bd[v]) >= span {
				c1 = append(c1, v)
			} else {
				c2 = append(c2, v)
			}
		}
	}

	// SM-E (Section 3.1), one candidate at a time so the per-candidate
	// trie-cost samples feed the Section 6 memory estimator.
	if len(c1) > 0 {
		smeSp := m.e.cfg.Trace.Start("execute/sme", m.id, -1)
		err := m.runSME(c1)
		smeSp.End()
		if err != nil {
			return err
		}
	}

	// Region groups (Section 6).
	grpSp := m.e.cfg.Trace.Start("execute/grouping", m.id, -1)
	target := m.e.groupMemTarget()
	var groups [][]graph.VertexID
	if m.e.cfg.RandomGrouping {
		groups = chunkGroups(c2, m.groupSizeFor(target))
	} else {
		groups = proximityGroups(m.e.g, c2, m.estBytes, target)
	}
	m.groupsFormed = len(groups)
	m.queue.Fill(groups)
	grpSp.End()

	// Process own groups across the worker pool; the daemon may give
	// some of them away concurrently via shareR.
	if err := m.processGroups(); err != nil {
		return err
	}

	// Work stealing (Section 3.1 checkR/shareR).
	if !m.e.cfg.DisableLoadBalancing {
		stealSp := m.e.cfg.Trace.Start("execute/steal", m.id, -1)
		err := m.stealPhase()
		stealSp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// processGroups drains the machine's group queue with engine.workers()
// pool workers. The pool is a barrier: all workers finish (queue empty
// or error) before the machine moves on. The first failure (context
// cancellation, ErrOutOfMemory, transport death) flips an abort flag
// so sibling workers stop before popping further groups — the prompt
// abort the sequential loop had.
func (m *machine) processGroups() error {
	workers := m.e.workers()
	var wg sync.WaitGroup
	var aborted atomic.Bool
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !aborted.Load() {
				if err := m.e.checkCtx(); err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				g, ok := m.queue.Pop()
				if !ok {
					return
				}
				if err := m.processGroup(g, w); err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSME enumerates every C1 candidate with the single-machine
// algorithm, restricted to vertices this machine owns. Candidates fan
// out across the worker pool; every worker reuses one enumerator
// (frame, bitset and candidate scratch allocated once), so the
// steady-state loop is allocation-free. Counter shards merge at the
// barrier; per-candidate tree-node sampling feeds the Section 6 memory
// estimator exactly as in the sequential path.
func (m *machine) runSME(c1 []graph.VertexID) error {
	owned := func(v graph.VertexID) bool { return m.e.part.Owner[v] == int32(m.id) }
	var fn func(f []graph.VertexID) bool
	if m.e.cfg.OnEmbedding != nil {
		fn = func(f []graph.VertexID) bool { m.emit(f); return true }
	} else {
		fn = func([]graph.VertexID) bool { return true }
	}
	workers := m.e.workers()
	if workers > len(c1) {
		workers = len(c1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	counts := make([]int64, workers)
	nodes := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := localenum.New(m.e.g, m.e.p, localenum.Options{
				Order:       m.e.pl.Order,
				Constraints: m.e.cons,
				Allowed:     owned,
			})
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c1) {
					return
				}
				if err := m.e.checkCtx(); err != nil {
					errs[w] = err
					return
				}
				st := en.Run(fn, c1[i])
				counts[w] += st.Embeddings
				nodes[w] += st.TreeNodes
			}
		}(w)
	}
	wg.Wait()
	var totalNodes int64
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return errs[w]
		}
		m.smeCount += counts[w]
		totalNodes += nodes[w]
	}
	m.smeNodes += totalNodes
	if len(c1) > 0 {
		m.avgNodesPerCandidate = float64(totalNodes) / float64(len(c1))
	}
	return nil
}

// estBytes estimates the intermediate-result bytes of the results
// originated from one candidate vertex (Section 6, "Estimating memory
// usage"): the average trie-node count sampled during SM-E times the
// accounted node size, scaled by the candidate's degree relative to
// the graph average. The degree scaling is our refinement of the
// paper's flat average: on skewed graphs a hub candidate spawns far
// more intermediate results than the mean, and a flat estimate packs
// hubs into oversized region groups that blow the memory budget.
func (m *machine) estBytes(v graph.VertexID) int64 {
	avg := m.avgNodesPerCandidate
	if avg <= 0 {
		avg = 256 // no SM-E sample (DisableSME or empty C1): coarse default
	}
	est := avg * float64(trieNodeBytes)
	if ad := m.e.avgDeg; ad > 0 && v >= 0 {
		skew := float64(m.e.g.Degree(v)) / ad
		if skew > 1 {
			// Results grow super-linearly in the pivot degree; square
			// the skew but cap it to keep groups from degenerating.
			skew *= skew
			if skew > 256 {
				skew = 256
			}
			est *= skew
		}
	}
	return int64(est)
}

func (m *machine) groupSizeFor(target int64) int {
	per := m.estBytes(-1) // flat estimate: random grouping has no locality
	n := int(target / per)
	if n < 1 {
		n = 1
	}
	return n
}

// stealPhase implements the load balancer (Section 3.1 checkR/shareR):
// one stealer goroutine polls the cluster — broadcast checkR, steal a
// group from the most loaded machine via shareR, repeat until every
// machine reports zero — and hands each stolen group to the machine's
// worker pool, so a thief chews stolen groups with the same
// intra-machine parallelism as its own instead of sequentially on the
// machine thread. The stealer stays one group ahead of the pool
// (unbuffered hand-off), so an idle machine never hoards groups a
// second thief could take.
func (m *machine) stealPhase() error {
	workers := m.e.workers()
	stolen := make(chan []graph.VertexID)
	var wg sync.WaitGroup
	var aborted atomic.Bool
	errs := make([]error, workers+1)

	wg.Add(1)
	go func() { // stealer
		defer wg.Done()
		defer close(stolen)
		fail := func(err error) {
			errs[workers] = err
			aborted.Store(true)
		}
		for !aborted.Load() {
			if err := m.e.checkCtx(); err != nil {
				fail(err)
				return
			}
			bestMachine, bestLoad := -1, 0
			for t := 0; t < m.e.part.M; t++ {
				if t == m.id {
					continue
				}
				resp, err := m.e.tr.Call(m.id, t, &cluster.CheckRRequest{})
				if err != nil {
					fail(fmt.Errorf("checkR to %d: %w", t, err))
					return
				}
				if n := resp.(*cluster.CheckRResponse).Unprocessed; n > bestLoad {
					bestMachine, bestLoad = t, n
				}
			}
			if bestMachine < 0 {
				return // cluster drained
			}
			resp, err := m.e.tr.Call(m.id, bestMachine, &cluster.ShareRRequest{})
			if err != nil {
				fail(fmt.Errorf("shareR to %d: %w", bestMachine, err))
				return
			}
			sr := resp.(*cluster.ShareRResponse)
			if !sr.OK {
				continue // lost the race; re-check
			}
			m.groupsStolen++
			stolen <- sr.Group
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Keep draining after an abort so the stealer never blocks
			// on a hand-off no worker will take.
			for g := range stolen {
				if aborted.Load() {
					continue
				}
				if err := m.e.checkCtx(); err != nil {
					errs[w] = err
					aborted.Store(true)
					continue
				}
				if err := m.processGroup(g, w); err != nil {
					errs[w] = err
					aborted.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- region grouping (Section 6, Algorithm 3) ---

// proximityGroups partitions candidates into region groups: greedily
// grow each group by the candidate with the highest proximity
// (fraction of its neighbours adjacent to the group) until the
// estimated memory phi(rg) would exceed the target.
func proximityGroups(g graph.Store, cands []graph.VertexID, est func(graph.VertexID) int64, target int64) [][]graph.VertexID {
	n := g.NumVertices()
	remaining := make([]bool, n)
	for _, v := range cands {
		remaining[v] = true
	}
	// Per-group sets, epoch-stamped so each group starts empty without
	// clearing: x is in the union of the group's neighbourhoods when
	// inAdj[x] == epoch, and remaining candidate y is on the frontier,
	// with hits[y] = |adj(y) ∩ that union|, when inFront[y] == epoch.
	// front lists the frontier; members that joined the group are
	// compacted out as the argmax scan passes them.
	inAdj := make([]uint32, n)
	inFront := make([]uint32, n)
	hits := make([]int32, n)
	var front []graph.VertexID
	var epoch uint32
	grow := func(w graph.VertexID) {
		for _, x := range g.Adj(w) {
			if inAdj[x] == epoch {
				continue
			}
			inAdj[x] = epoch
			for _, y := range g.Adj(x) {
				if !remaining[y] {
					continue
				}
				if inFront[y] != epoch {
					inFront[y] = epoch
					hits[y] = 0
					front = append(front, y)
				}
				hits[y]++
			}
		}
	}

	var groups [][]graph.VertexID
	// Deterministic iteration: process candidates in sorted order.
	sorted := slices.Clone(cands)
	slices.Sort(sorted)
	for _, seed := range sorted {
		if !remaining[seed] {
			continue
		}
		remaining[seed] = false
		epoch++
		front = front[:0]
		rg := []graph.VertexID{seed}
		phi := est(seed)
		grow(seed)
		for phi < target {
			// argmax proximity over the frontier; ties go to the lowest
			// vertex, so the scan order does not matter.
			best, bestScore := graph.VertexID(-1), -1.0
			live := front[:0]
			for _, v := range front {
				if !remaining[v] {
					continue
				}
				live = append(live, v)
				score := float64(hits[v]) / float64(g.Degree(v))
				if score > bestScore || (score == bestScore && v < best) {
					best, bestScore = v, score
				}
			}
			front = live
			if best < 0 {
				break // no candidate within distance 2 of the group
			}
			cost := est(best)
			if phi+cost > target {
				break // Alg. 3 line 8-9: would overflow; leave it for later
			}
			remaining[best] = false
			rg = append(rg, best)
			phi += cost
			grow(best)
		}
		groups = append(groups, rg)
	}
	return groups
}

// chunkGroups is the RandomGrouping ablation: fixed-size chunks with no
// locality.
func chunkGroups(cands []graph.VertexID, size int) [][]graph.VertexID {
	var groups [][]graph.VertexID
	for len(cands) > 0 {
		n := size
		if n > len(cands) {
			n = len(cands)
		}
		groups = append(groups, cands[:n])
		cands = cands[n:]
	}
	return groups
}

// --- group queue (shared between the machine loop and its daemon) ---

type groupQueue struct {
	mu     chan struct{} // 1-buffered channel used as a mutex
	groups [][]graph.VertexID
}

func newGroupQueue() *groupQueue {
	q := &groupQueue{mu: make(chan struct{}, 1)}
	q.mu <- struct{}{}
	return q
}

func (q *groupQueue) Fill(groups [][]graph.VertexID) {
	<-q.mu
	q.groups = append(q.groups, groups...)
	q.mu <- struct{}{}
}

func (q *groupQueue) Pop() ([]graph.VertexID, bool) {
	<-q.mu
	defer func() { q.mu <- struct{}{} }()
	if len(q.groups) == 0 {
		return nil, false
	}
	g := q.groups[len(q.groups)-1]
	q.groups = q.groups[:len(q.groups)-1]
	return g, true
}

func (q *groupQueue) Len() int {
	<-q.mu
	defer func() { q.mu <- struct{}{} }()
	return len(q.groups)
}

// --- local-knowledge view ---

// view enforces the distribution discipline: a machine may read the
// adjacency list of a vertex only if it owns it or has fetched it.
// One view is shared by all of a machine's pool workers.
//
// Reads take no lock: slots[x] holds x's fetched list while it is
// cached, so a probe is an ownership check plus one atomic load. A
// probe racing a drop is still correct, because fetched lists are
// immutable, and the lists a round depends on are pinned (a refcount),
// which dropAll — the budget valve and the DisableCache ablation —
// never clears. Writers (insertion with its budget charge, pins,
// drops) serialize on mu, so everything resident stays
// budget-charged. fetchMu serializes whole fetch phases
// (need-computation, the fetchV call, insertion), so each foreign
// adjacency list is fetched, transported and budget-charged once per
// machine regardless of Workers.
type view struct {
	e     *engine
	id    int
	owner []int32 // e.part.Owner, one indirection closer to the probes

	slots []atomic.Pointer[[]graph.VertexID] // indexed by vertex ID

	mu       sync.Mutex
	pins     []int32          // pin count per vertex
	resident []graph.VertexID // vertices whose slot is set

	// fetchMu serializes fetch phases across the machine's pool
	// workers and guards the fetch scratch below; held across the
	// transport call, which is safe because the remote daemon never
	// touches this machine's view.
	fetchMu sync.Mutex
	need    [][]graph.VertexID // per owner: vertices to fetch
	seen    []uint32           // seen[x] == epoch: x handled this phase
	epoch   uint32

	// Fetch-phase cache effectiveness: hits are foreign pivots found
	// resident (pinCached success in a fetch phase), misses crossed the
	// network. Counted only in the batched fetch phases — not in the
	// adjKnown hot path, whose per-probe counting would distort the
	// enumeration inner loop.
	hits, misses atomic.Int64
}

func newView(e *engine, id int) *view {
	n := len(e.part.Owner)
	return &view{
		e:     e,
		id:    id,
		owner: e.part.Owner,
		slots: make([]atomic.Pointer[[]graph.VertexID], n),
		pins:  make([]int32, n),
		need:  make([][]graph.VertexID, e.part.M),
		seen:  make([]uint32, n),
	}
}

func (v *view) owned(x graph.VertexID) bool { return v.owner[x] == int32(v.id) }

// cachedAdj returns x's fetched adjacency list, if present.
func (v *view) cachedAdj(x graph.VertexID) ([]graph.VertexID, bool) {
	if p := v.slots[x].Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// adjKnown returns the adjacency list of x if locally determinable.
func (v *view) adjKnown(x graph.VertexID) ([]graph.VertexID, bool) {
	if v.owned(x) {
		return v.e.g.Adj(x), true
	}
	return v.cachedAdj(x)
}

// pinCached atomically pins x if it is cached, reporting whether it
// was. Every successful pin must be matched by one unpin.
func (v *view) pinCached(x graph.VertexID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.slots[x].Load() == nil {
		return false
	}
	v.pins[x]++
	return true
}

// insertPinned caches a fetched adjacency list (charging the budget if
// it is new) and pins it. The charge failure leaves the entry absent
// and unpinned.
func (v *view) insertPinned(x graph.VertexID, adj []graph.VertexID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.slots[x].Load() == nil {
		if err := v.e.cfg.Budget.Charge(v.id, cacheEntryBytes(adj)); err != nil {
			return err
		}
		v.slots[x].Store(&adj)
		v.resident = append(v.resident, x)
	}
	v.pins[x]++
	return nil
}

// unpin releases one pin on x. The entry stays cached (and charged)
// until a later dropAll finds it unpinned.
func (v *view) unpin(x graph.VertexID) {
	v.mu.Lock()
	v.pins[x]--
	v.mu.Unlock()
}

// dropAll empties the unpinned part of the cache (DisableCache
// ablation and the budget valve), releasing budget. Pinned entries —
// lists an in-flight round still depends on — survive, charged, until
// their frames unpin them.
func (v *view) dropAll() {
	v.mu.Lock()
	defer v.mu.Unlock()
	kept := v.resident[:0]
	for _, x := range v.resident {
		if v.pins[x] > 0 {
			kept = append(kept, x)
			continue
		}
		v.e.cfg.Budget.Release(v.id, cacheEntryBytes(*v.slots[x].Load()))
		v.slots[x].Store(nil)
	}
	v.resident = kept
}

// beginFetch starts a fetch phase; the caller holds fetchMu. It empties
// the per-owner need lists and invalidates every seen mark.
func (v *view) beginFetch() {
	for o := range v.need {
		v.need[o] = v.need[o][:0]
	}
	if v.epoch++; v.epoch == 0 { // wrapped: stale marks would alias
		clear(v.seen)
		v.epoch = 1
	}
}

func cacheEntryBytes(adj []graph.VertexID) int64 {
	return int64(len(adj))*4 + 24
}
