package rads

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rads/internal/cluster"
	"rads/internal/etrie"
	"rads/internal/graph"
	"rads/internal/pattern"
)

const trieNodeBytes = etrie.NodeBytes

// groupState carries the per-region-group R-Meef state (Algorithm 4).
// It also shards every counter the group mutates — concurrent groups
// on one machine's worker pool never touch shared machine state until
// the merge at the end of processGroup.
type groupState struct {
	trie *etrie.Trie
	evi  *etrie.EVI

	view *view // the machine's shared local-knowledge view

	// pinLog records, in order, every view pin this group's in-flight
	// rounds acquired; each runRounds frame unpins its suffix on exit.
	// Pins keep entries resident in the shared cache (dropAll skips
	// them), so everything a round depends on stays determinable — and
	// budget-charged — until its frame completes.
	pinLog []graph.VertexID

	// created collects the EC leaves of the current flush segment: the
	// results produced since the last verify & filter.
	created []*etrie.Node

	// next[r] holds the surviving leaves a flush of round r hands to
	// round r+1. Rounds only grow along the recursion (a flush of round
	// r descends into r+1 before any other flush of r can start), so
	// one buffer per round serves all of the group's segments.
	next [][]*etrie.Node

	// f is the partial embedding indexed by query vertex, -1 where
	// unmatched. It doubles as the used set: see used.
	f []graph.VertexID

	// undet stacks the undetermined edges along the current adjEnum
	// chain; each recursion depth truncates back to the length it found.
	undet []graph.Edge

	pathBuf []graph.VertexID

	// byOwner is verifyAndFilter's per-owner request scratch.
	byOwner [][]graph.Edge

	// flushNodes bounds the number of EC leaves a flush segment may
	// accumulate before verification and deeper rounds run for it.
	// This is the reproduction's extension of the Section 6 memory
	// control below single-candidate granularity: a hub candidate whose
	// one-round expansion would not fit in the group memory target is
	// processed in several verify-filter-descend segments instead of
	// materializing the whole round. 0 disables segmentation (the
	// paper's plain per-round batching).
	flushNodes int

	// sub marks a per-worker shard state of a split round
	// (expandRoundParallel); shards never split again, so one group
	// claims the pool at most once at a time.
	sub bool

	// splits counts rounds this group expanded across the worker pool.
	splits int64

	// Per-group result shards, merged into the machine when the group
	// completes.
	distCount      int64
	nodes          int64 // trie nodes linked (tree-node accounting)
	elCum, etCum   int64
	elPeak, etPeak int64

	chargedTrie int64 // budget bytes currently charged for the trie
}

// newGroupState returns empty R-Meef state for one region group (or
// one shard of a split round) on this machine.
func (m *machine) newGroupState() *groupState {
	e := m.e
	st := &groupState{
		trie:    etrie.New(len(e.redOrder)),
		evi:     etrie.NewEVI(),
		view:    m.view,
		next:    make([][]*etrie.Node, len(e.pl.Units)),
		f:       emptyEmbedding(e.p.N()),
		byOwner: make([][]graph.Edge, e.part.M),
	}
	if target := e.groupMemTarget(); target > 0 {
		// Leave half the target as headroom for the segment being built.
		st.flushNodes = int(target / (2 * trieNodeBytes))
		if st.flushNodes < 1 {
			st.flushNodes = 1
		}
	}
	return st
}

func emptyEmbedding(n int) []graph.VertexID {
	f := make([]graph.VertexID, n)
	for i := range f {
		f[i] = -1
	}
	return f
}

// processGroup runs all R-Meef rounds for one region group. worker is
// the pool-worker index it runs on, for span attribution.
func (m *machine) processGroup(group []graph.VertexID, worker int) error {
	e := m.e
	groupSp := e.cfg.Trace.Start("execute/group", m.id, worker)
	defer groupSp.End()
	st := m.newGroupState()

	// Round 0: the frontier is the group's candidates of dp0.piv mapped
	// as single-vertex partial embeddings. For stolen groups the
	// candidates are foreign, so round 0 also prefetches them.
	roots := make([]*etrie.Node, 0, len(group))
	for _, v := range group {
		root := st.trie.Node(nil, v)
		st.trie.Link(root)
		st.nodes++
		roots = append(roots, root)
	}

	err := m.runRounds(st, 0, roots)

	// Release the trie's budget charge (also on the error path, so an
	// aborted group does not leak accounted bytes) and merge the
	// group's counter shards into the machine.
	e.cfg.Budget.Release(m.id, st.chargedTrie)
	st.chargedTrie = 0
	m.mu.Lock()
	m.distCount += st.distCount
	m.distNodes += st.nodes
	m.elCum += st.elCum
	m.etCum += st.etCum
	if st.elPeak > m.elPeak {
		m.elPeak = st.elPeak
	}
	if st.etPeak > m.etPeak {
		m.etPeak = st.etPeak
	}
	m.frontierSplits += st.splits
	m.mu.Unlock()
	return err
}

// adjKnown returns the adjacency list of x if determinable by this
// group: owned vertices or the machine's shared cache (entries the
// group's rounds depend on are pinned there, so they cannot be
// evicted from under an in-flight frame).
func (st *groupState) adjKnown(x graph.VertexID) ([]graph.VertexID, bool) {
	return st.view.adjKnown(x)
}

// used reports whether data vertex x is already matched in the partial
// embedding. f has one entry per query vertex, so a scan is cheaper
// than maintaining any set; unmatched entries hold -1 and never match.
func (st *groupState) used(x graph.VertexID) bool {
	for _, y := range st.f {
		if y == x {
			return true
		}
	}
	return false
}

// mustAdj returns the adjacency list of x, which the caller has
// guaranteed is local or fetched-and-pinned; it panics otherwise,
// catching any violation of the distribution discipline.
func (st *groupState) mustAdj(x graph.VertexID) []graph.VertexID {
	a, ok := st.adjKnown(x)
	if !ok {
		panic(fmt.Sprintf("rads: machine %d read unfetched foreign vertex %d", st.view.id, x))
	}
	return a
}

// edgeKnown reports (exists, determinable) for data edge (a,b) using
// only local knowledge.
func (st *groupState) edgeKnown(a, b graph.VertexID) (bool, bool) {
	if adj, ok := st.adjKnown(a); ok {
		return graph.ContainsSorted(adj, b), true
	}
	if adj, ok := st.adjKnown(b); ok {
		return graph.ContainsSorted(adj, a), true
	}
	return false, false
}

// degreeAtLeast reports whether deg(x) >= d when determinable locally;
// undeterminable vertices pass (the filter is only a pruning aid).
func (st *groupState) degreeAtLeast(x graph.VertexID, d int) bool {
	if a, ok := st.adjKnown(x); ok {
		return len(a) >= d
	}
	return true
}

// logPin records one acquired view pin for frame-scoped release.
func (st *groupState) logPin(x graph.VertexID) {
	st.pinLog = append(st.pinLog, x)
}

// unpinTo releases every pin recorded after the marker (a former
// len(pinLog)), letting the next dropAll evict those entries.
func (st *groupState) unpinTo(marker int) {
	for _, x := range st.pinLog[marker:] {
		st.view.unpin(x)
	}
	st.pinLog = st.pinLog[:marker]
}

// runRounds executes rounds round..l for the given frontier (live
// results of P_{round-1}), in flush segments when memory pressure
// demands it.
func (m *machine) runRounds(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	// Frame-scoped pins: everything this round (and the emit frame)
	// pins is released when the frame completes, keeping the overlay's
	// resident set bounded by the in-flight recursion.
	marker := len(st.pinLog)
	defer st.unpinTo(marker)
	if round == len(e.pl.Units) {
		return m.emitResults(st, frontier)
	}
	if len(e.unitLeaves[round]) == 0 {
		// Every leaf of this unit is a deferred end vertex: the results
		// of P_round are exactly the results of P_{round-1}.
		return m.runRounds(st, round+1, frontier)
	}
	if err := m.fetchPivots(st, frontier, e.redPos[e.pl.Units[round].Piv]); err != nil {
		return err
	}
	// Huge-group frontier parallelism: a hub-seeded group can hold most
	// of a machine's work in one frontier, serialising the machine on
	// the single pool worker that owns the group. Past the threshold the
	// frontier is sharded across the pool; the shards resolve their
	// subtrees completely (expand, verify, descend), so on return the
	// round — and everything below it — is done.
	if thr := e.hugeFrontier(); thr > 0 && !st.sub && len(frontier) >= thr && e.workers() > 1 {
		return m.expandRoundParallel(st, round, frontier)
	}
	if err := m.expandRound(st, round, frontier); err != nil {
		return err
	}
	// End-of-round flush: verify and filter whatever the expansion
	// produced since the last mid-round flush, then descend.
	return m.flushSegment(st, round)
}

// expandRoundParallel expands one huge frontier across the machine's
// worker pool. Each worker owns a shard groupState — its own trie
// accounting, EVI, embedding frame, scratch and counter shards — and
// claims disjoint frontier chunks from an atomic cursor, so workers
// share only the view (mutex-guarded), the budget (mutex-guarded) and
// the transport. Chunks run the unchanged sequential machinery
// (expandRound + flushSegment), which resolves each chunk's entire
// subtree down to emitted results before the next chunk is claimed.
//
// Trie safety: nodes are free-standing (the Trie is accounting), so a
// worker linking children under a frontier node F touches only F's
// child counter — and disjoint chunks make F worker-exclusive. Shared
// ancestors of the frontier are protected by guard pins: the
// coordinator pins every frontier node before the fan-out, so a
// worker-side removal cascade stops at F (its counter never reaches
// zero) and cannot cross into nodes another worker can see. After the
// barrier the coordinator drops the guards single-threaded, which
// removes frontier nodes whose whole subtree resolved — the same
// semantics expandRound's per-parent Unpin gives the sequential path.
func (m *machine) expandRoundParallel(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	sp := e.cfg.Trace.Start("execute/splitRound", m.id, -1)
	defer sp.End()
	st.splits++

	guards := make([]*etrie.Node, 0, len(frontier))
	for _, n := range frontier {
		if n.Dead() {
			continue
		}
		st.trie.Pin(n)
		guards = append(guards, n)
	}

	workers := e.workers()
	// Small chunks load-balance the skew this path exists for (one hub
	// parent can dwarf a thousand ordinary ones), but each chunk pays a
	// flush; 8 claims per worker keeps both costs marginal.
	chunk := len(guards) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}

	subs := make([]*groupState, workers)
	errs := make([]error, workers)
	var cursor atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sub := m.newGroupState()
		sub.sub = true
		subs[w] = sub
		wg.Add(1)
		go func(w int, sub *groupState) {
			defer wg.Done()
			for !aborted.Load() {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= len(guards) {
					return
				}
				hi := lo + chunk
				if hi > len(guards) {
					hi = len(guards)
				}
				if err := e.checkCtx(); err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				if err := m.expandRound(sub, round, guards[lo:hi]); err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				if err := m.flushSegment(sub, round); err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
			}
		}(w, sub)
	}
	wg.Wait()

	var firstErr error
	for w, sub := range subs {
		// Release shard charges and any pins an error path left behind,
		// then merge the shard counters into the group (also on failure,
		// so partial work stays accounted).
		e.cfg.Budget.Release(m.id, sub.chargedTrie)
		sub.chargedTrie = 0
		sub.unpinTo(0)
		st.distCount += sub.distCount
		st.nodes += sub.nodes
		st.elCum += sub.elCum
		st.etCum += sub.etCum
		if sub.elPeak > st.elPeak {
			st.elPeak = sub.elPeak
		}
		if sub.etPeak > st.etPeak {
			st.etPeak = sub.etPeak
		}
		if errs[w] != nil && firstErr == nil {
			firstErr = errs[w]
		}
	}
	for _, n := range guards {
		st.trie.Unpin(n)
	}
	if firstErr != nil {
		return firstErr
	}
	return m.chargeTrie(st)
}

// flushSegment closes the current segment of round `round`: it
// verifies the EVI, filters failed ECs, records stats, reconciles the
// memory charge, and pushes the surviving ECs through the remaining
// rounds. On return the segment's subtree has been fully resolved and
// its memory released (final results are counted and removed as they
// complete).
func (m *machine) flushSegment(st *groupState, round int) error {
	e := m.e
	if err := m.verifyAndFilter(st); err != nil {
		return err
	}
	next := st.next[round][:0]
	if cap(next) < len(st.created) {
		next = make([]*etrie.Node, 0, len(st.created))
	}
	for _, n := range st.created {
		if !n.Dead() {
			next = append(next, n)
		}
	}
	clear(st.created)
	st.created = st.created[:0]

	m.recordRoundStats(st, round, len(next))
	if err := m.chargeTrie(st); err != nil {
		return err
	}
	if e.cfg.DisableCache {
		st.view.dropAll()
	} else if b := e.cfg.Budget; b != nil && b.Limit() > 0 && b.Used(m.id) > b.Limit()*3/4 {
		// The paper's cache-release valve: "when more data vertices
		// need to be fetched, we may release some previously cached
		// data vertices if necessary". Dropping the cache between
		// rounds only costs re-fetches, never correctness.
		st.view.dropAll()
	}
	st.next[round] = next
	if len(next) == 0 {
		return nil
	}
	err := m.runRounds(st, round+1, next)
	clear(next)
	return err
}

// midFlush is flushSegment invoked from inside an expansion loop. The
// deeper rounds reuse the shared scratch state (f, pathBuf), so the
// caller's view of it is saved and restored around the descent. The
// undet stack needs no saving: flush points sit between top-level
// candidates, where it is empty, and the descent leaves it empty.
func (m *machine) midFlush(st *groupState, round int) error {
	savedF, savedPath := st.f, st.pathBuf
	st.f = emptyEmbedding(len(savedF))
	st.pathBuf = nil

	err := m.flushSegment(st, round)

	st.f, st.pathBuf = savedF, savedPath
	return err
}

// emitResults consumes the full embeddings of the (reduced) pattern:
// counts them — multiplying in the deferred end-vertex completions —
// hands full embeddings to the OnEmbedding callback when set, and
// removes them from the trie so their memory is reclaimed before the
// next segment builds up.
func (m *machine) emitResults(st *groupState, frontier []*etrie.Node) error {
	e := m.e
	if len(e.deferred) > 0 {
		if err := m.fetchPivots(st, frontier, e.defPivPos...); err != nil {
			return err
		}
	}
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		if len(e.deferred) == 0 {
			st.distCount++
			if e.cfg.OnEmbedding != nil {
				st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
				for j, v := range st.pathBuf {
					st.f[e.redOrder[j]] = v
				}
				m.emit(st.f)
				for j := range st.pathBuf {
					st.f[e.redOrder[j]] = -1
				}
			}
			st.trie.Remove(leaf)
			continue
		}
		// End-vertex counting: materialize the core embedding, then
		// enumerate the deferred completions without caching anything
		// (the paper’s Exp-3 end-vertex treatment).
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		for j, v := range st.pathBuf {
			st.f[e.redOrder[j]] = v
		}
		st.distCount += m.countDeferred(st, 0)
		for j := range st.pathBuf {
			st.f[e.redOrder[j]] = -1
		}
		st.trie.Remove(leaf)
	}
	// Reclaim the emitted results’ memory promptly.
	return m.chargeTrie(st)
}

// countDeferred counts the injective, symmetry-respecting assignments
// of the deferred end vertices given the fixed core embedding in st.f.
// Candidates for deferred vertex i are the neighbours of its pivot’s
// data vertex; the expansion edge holds by construction, and end
// vertices have no other pattern edges, so no verification is needed.
func (m *machine) countDeferred(st *groupState, di int) int64 {
	e := m.e
	if di == len(e.deferred) {
		return 1
	}
	d := e.deferred[di]
	adj := st.mustAdj(st.f[e.defPiv[di]])
	var total int64
	for _, v := range adj {
		if st.used(v) {
			continue
		}
		ok := true
		for _, c := range e.defCons[di] {
			o := st.f[c.other]
			if c.less {
				if !(v < o) {
					ok = false
					break
				}
			} else if !(v > o) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		st.f[d] = v
		total += m.countDeferred(st, di+1)
		st.f[d] = -1
	}
	return total
}

// fetchPivots makes the adjacency list of every pivot data vertex of
// the live frontier — the path entries at positions pos — locally
// available and pinned for the caller's frame. Owned vertices need
// nothing, cached ones are pinned, and the rest are fetched with one
// batched fetchV request per remote machine (Section 3.2 "Expand"; the
// cache-release valve may have dropped lists fetched in earlier
// rounds).
func (m *machine) fetchPivots(st *groupState, frontier []*etrie.Node, pos ...int) error {
	e := m.e
	v := st.view
	// One fetch phase at a time per machine: a concurrent group's
	// fetch completes (and inserts) before this need-computation runs,
	// so each foreign vertex crosses the network once per machine.
	v.fetchMu.Lock()
	defer v.fetchMu.Unlock()
	v.beginFetch()
	fetching := false
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		for _, p := range pos {
			x := st.pathBuf[p]
			if v.seen[x] == v.epoch {
				continue
			}
			v.seen[x] = v.epoch
			if v.owned(x) {
				continue
			}
			// DisableCache models a cacheless machine: every round pays
			// the fetch again, so a cache hit is not taken.
			if !e.cfg.DisableCache && v.pinCached(x) {
				v.hits.Add(1)
				st.logPin(x) // keep it resident past any cache drop
				continue
			}
			v.misses.Add(1)
			owner := e.part.Owner[x]
			v.need[owner] = append(v.need[owner], x)
			fetching = true
		}
	}
	if !fetching {
		return nil
	}
	sp := e.cfg.Trace.Start("execute/fetchV", m.id, -1)
	defer sp.End()
	for owner, vs := range v.need {
		if len(vs) == 0 {
			continue
		}
		slices.Sort(vs)
		resp, err := e.tr.Call(m.id, owner, &cluster.FetchVRequest{Vertices: vs})
		if err != nil {
			return fmt.Errorf("fetchV to %d: %w", owner, err)
		}
		adj := resp.(*cluster.FetchVResponse).Adj
		if len(adj) != len(vs) {
			return fmt.Errorf("fetchV to %d: got %d lists for %d vertices", owner, len(adj), len(vs))
		}
		for i, x := range vs {
			if err := v.insertPinned(x, adj[i]); err != nil {
				return err
			}
			st.logPin(x)
		}
	}
	return nil
}

// expandRound expands every frontier embedding of P_{round-1} through
// unit `round` (Algorithm 1). Frontier entries whose subtree produces
// no surviving results are removed via the pin/unpin accounting.
func (m *machine) expandRound(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	piv := e.pl.Units[round].Piv
	leaves := e.unitLeaves[round]
	prefixBefore := 1
	if round > 0 {
		prefixBefore = e.redPrefix[round-1]
	}
	for _, parent := range frontier {
		if parent.Dead() {
			continue
		}
		// Materialize f from the trie path.
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], parent)
		if len(st.pathBuf) != prefixBefore {
			return fmt.Errorf("internal: frontier path length %d, want %d", len(st.pathBuf), prefixBefore)
		}
		for j, v := range st.pathBuf {
			st.f[e.redOrder[j]] = v
		}

		vpiv := st.f[piv]
		adj := st.mustAdj(vpiv) // fetched and pinned by fetchPivots

		st.undet = st.undet[:0]
		// Pin the parent: a mid-round flush may consume and remove every
		// child produced so far while we are still expanding beneath it.
		st.trie.Pin(parent)
		_, err := m.adjEnum(st, round, 0, parent, leaves, adj)

		// Backtrack bookkeeping. pathBuf may have been clobbered by a
		// mid-round flush, so clear via f (which midFlush restores).
		for j := 0; j < prefixBefore; j++ {
			st.f[e.redOrder[j]] = -1
		}
		// Unpin removes the parent when nothing under it survived —
		// Algorithm 1 lines 7-9 generalized to segmented rounds.
		st.trie.Unpin(parent)
		if err != nil {
			return err
		}
	}
	return nil
}

// adjEnum is Algorithm 2: recursively match unit leaves within the
// neighbourhood of the pivot's data vertex, verifying what is locally
// determinable and deferring the rest to the EVI. At the top level it
// honours the flush limit: between candidate subtrees, if the current
// segment has grown past flushNodes, the segment is verified, filtered
// and descended before expansion continues.
func (m *machine) adjEnum(st *groupState, round, li int, parent *etrie.Node, leaves []pattern.VertexID, pivAdj []graph.VertexID) (bool, error) {
	e := m.e
	u := leaves[li]
	pos := e.redPos[u]
	produced := false

	for _, v := range pivAdj {
		if li == 0 && st.flushNodes > 0 && len(st.created) >= st.flushNodes {
			// Safe flush point: no partially-built chain is open (the
			// previous candidate's subtree is fully linked), and the
			// pinned parent survives the descent.
			if err := m.midFlush(st, round); err != nil {
				return produced, err
			}
		}
		if st.used(v) {
			continue
		}
		// Symmetry-breaking constraints against earlier positions.
		ok := true
		for _, c := range e.cons2[pos] {
			o := st.f[c.other]
			if c.less {
				if !(v < o) {
					ok = false
					break
				}
			} else if !(v > o) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if !st.degreeAtLeast(v, e.p.Degree(u)) {
			continue
		}
		// Verification edges to already-matched query vertices: check
		// locally when determinable, otherwise stack as undetermined.
		mark := len(st.undet)
		for _, w := range e.verif[pos] {
			fw := st.f[w]
			exists, determinable := st.edgeKnown(v, fw)
			if determinable {
				if !exists {
					ok = false
					break
				}
			} else {
				st.undet = append(st.undet, graph.Edge{U: v, V: fw}.Normalize())
			}
		}
		if !ok {
			st.undet = st.undet[:mark]
			continue
		}

		node := st.trie.Node(parent, v)
		st.f[u] = v

		var err error
		if li == len(leaves)-1 {
			// EC of P_round complete (Algorithm 2 lines 16-19).
			st.trie.Link(node)
			st.nodes++
			st.created = append(st.created, node)
			for _, de := range st.undet {
				st.evi.Add(de, node)
			}
			produced = true
		} else {
			var deeper bool
			deeper, err = m.adjEnum(st, round, li+1, node, leaves, pivAdj)
			if deeper {
				st.trie.Link(node)
				st.nodes++
				produced = true
			}
		}

		st.undet = st.undet[:mark]
		st.f[u] = -1
		if err != nil {
			return produced, err
		}
	}
	return produced, nil
}

// verifyAndFilter sends one verifyE request per remote machine covering
// all EVI keys, then filters failed candidates (Proposition 2).
func (m *machine) verifyAndFilter(st *groupState) error {
	e := m.e
	if st.evi.Len() == 0 {
		return nil
	}
	byOwner := st.byOwner
	for o := range byOwner {
		byOwner[o] = byOwner[o][:0]
	}
	for _, ed := range st.evi.Edges() {
		owner := int(e.part.Owner[ed.U])
		if owner == m.id {
			// Shouldn't happen: locally determinable edges never enter
			// the EVI; resolve defensively without network traffic.
			if !e.g.HasEdge(ed.U, ed.V) {
				st.evi.Fail(ed, st.trie)
			}
			continue
		}
		byOwner[owner] = append(byOwner[owner], ed)
	}
	sp := e.cfg.Trace.Start("execute/verifyE", m.id, -1)
	defer sp.End()
	for owner, edges := range byOwner {
		if len(edges) == 0 {
			continue
		}
		req := &cluster.VerifyERequest{Edges: edges}
		resp, err := e.tr.Call(m.id, owner, req)
		if err != nil {
			return fmt.Errorf("verifyE to %d: %w", owner, err)
		}
		exists := resp.(*cluster.VerifyEResponse).Exists
		if len(exists) != len(req.Edges) {
			return fmt.Errorf("verifyE to %d: %d answers for %d edges", owner, len(exists), len(req.Edges))
		}
		for i, ok := range exists {
			if !ok {
				st.evi.Fail(req.Edges[i], st.trie)
			}
		}
	}
	st.evi.Reset()
	return nil
}

// recordRoundStats accumulates the Table 3/4 compression accounting for
// one flush segment of one round: alive is the number of surviving
// results of P_round in the segment.
func (m *machine) recordRoundStats(st *groupState, round, alive int) {
	prefix := int64(m.e.redPrefix[round])
	el := int64(alive) * prefix * etrie.VertexBytes
	et := st.trie.Bytes()
	st.elCum += el
	st.etCum += et
	if el > st.elPeak {
		st.elPeak = el
	}
	if et > st.etPeak {
		st.etPeak = et
	}
}

// chargeTrie reconciles the budget charge with the trie's current size.
func (m *machine) chargeTrie(st *groupState) error {
	cur := st.trie.Bytes()
	switch {
	case cur > st.chargedTrie:
		if err := m.e.cfg.Budget.Charge(m.id, cur-st.chargedTrie); err != nil {
			return err
		}
	case cur < st.chargedTrie:
		m.e.cfg.Budget.Release(m.id, st.chargedTrie-cur)
	}
	st.chargedTrie = cur
	return nil
}
