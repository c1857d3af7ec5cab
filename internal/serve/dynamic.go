package serve

import (
	"context"

	"agl/internal/graph"
)

// This file is the serving tier's dynamic-graph machinery: the reverse
// k-hop dependency index that turns a mutation batch into the exact set of
// invalidated nodes, and Server.Apply, which commits a batch and evicts
// precisely those entries from the score cache and the embedding store.
//
// Consistency model. A node's served score depends on its k-hop in-edge
// neighborhood (the GraphFeature extraction walks in-edges backwards from
// the target). Mutating node v — its features, or an edge into it —
// therefore affects exactly the targets reachable FROM v within K hops
// along out-edges. The index maintains the dense out-adjacency and BFSes
// it from the batch's seed nodes; everything reached is invalidated.
//
// The BFS deliberately follows the full fan-out rather than the sampled
// fan-out used at extraction time: sampling (FlatConfig.MaxNeighbors +
// Strategy) decides per node which in-edges survive, and a mutation of
// the node's in-edges can flip that decision arbitrarily, so bounding the
// dependency walk by the sampled set would under-invalidate. Full fan-out
// over-approximates — an invalidation is never missed, at worst a few
// unaffected entries recompute once.

// depIndex is the reverse k-hop dependency index: the graph's dense
// out-adjacency, advanced incrementally as mutation batches commit. It is
// owned by Server.Apply (serialized by applyMu) and never read
// concurrently.
type depIndex struct {
	out [][]int32
}

// newDepIndex builds the out-adjacency for g.
func newDepIndex(g *graph.Graph) *depIndex {
	out := make([][]int32, g.NumNodes())
	for _, e := range g.Edges {
		si := g.MustIndex(e.Src)
		out[si] = append(out[si], int32(g.MustIndex(e.Dst)))
	}
	return &depIndex{out: out}
}

// invalidate returns the ids of every node whose k-hop extraction may have
// changed under the applied batch, and advances the index to next.
//
// The BFS runs over the union of pre- and post-batch out-edges: removed
// edges are still present in the not-yet-advanced rows, added edges are
// overlaid from the batch itself — so entries computed under either
// version are covered, including cycles routed through a removed edge.
func (d *depIndex) invalidate(next *graph.Graph, muts []graph.Mutation, hops int) []int64 {
	for len(d.out) < next.NumNodes() {
		d.out = append(d.out, nil)
	}
	added := map[int32][]int32{}
	seeds := map[int32]bool{}
	touchedSrc := map[int]bool{}
	for _, m := range muts {
		switch m.Op {
		case graph.OpAddEdge:
			si, ok1 := next.Index(m.Src)
			di, ok2 := next.Index(m.Dst)
			if ok1 && ok2 {
				added[int32(si)] = append(added[int32(si)], int32(di))
				seeds[int32(di)] = true
				touchedSrc[si] = true
			}
		case graph.OpRemoveEdge:
			si, ok1 := next.Index(m.Src)
			di, ok2 := next.Index(m.Dst)
			if ok1 && ok2 {
				seeds[int32(di)] = true
				touchedSrc[si] = true
			}
		case graph.OpAddNode, graph.OpUpdateNodeFeat:
			if i, ok := next.Index(m.ID); ok {
				seeds[int32(i)] = true
			}
		}
	}

	affected := make(map[int32]bool, len(seeds))
	frontier := make([]int32, 0, len(seeds))
	for s := range seeds {
		affected[s] = true
		frontier = append(frontier, s)
	}
	for depth := 0; depth < hops && len(frontier) > 0; depth++ {
		var nextFrontier []int32
		visit := func(v int32) {
			if !affected[v] {
				affected[v] = true
				nextFrontier = append(nextFrontier, v)
			}
		}
		for _, u := range frontier {
			for _, v := range d.out[u] {
				visit(v)
			}
			for _, v := range added[u] {
				visit(v)
			}
		}
		frontier = nextFrontier
	}

	// Advance the index: rows of sources the batch touched are rebuilt
	// from next's edge table (canonical — repeated weight merges on one
	// edge never duplicate an entry).
	if len(touchedSrc) > 0 {
		for si := range touchedSrc {
			d.out[si] = nil
		}
		for _, e := range next.Edges {
			si := next.MustIndex(e.Src)
			if touchedSrc[si] {
				d.out[si] = append(d.out[si], int32(next.MustIndex(e.Dst)))
			}
		}
	}

	ids := make([]int64, 0, len(affected))
	for i := range affected {
		ids = append(ids, next.Nodes[i].ID)
	}
	return ids
}

// ApplyResult summarizes one mutation batch committed to a Server.
type ApplyResult struct {
	// Version is the graph version after the batch (unchanged when
	// nothing applied).
	Version uint64
	// Applied counts the mutations that took effect.
	Applied int
	// Errs is positional: Errs[i] is nil when muts[i] applied, otherwise
	// why it was skipped. Matches ScoreMany's partial-failure contract —
	// one bad mutation does not discard the rest of the batch.
	Errs []error
	// Invalidated counts cache entries evicted plus store rows newly
	// marked dirty by this batch.
	Invalidated int
}

// Apply commits a mutation batch to the serving graph and incrementally
// invalidates everything the batch can have affected: the k-hop dependency
// BFS picks the affected node set, their score-cache entries are evicted,
// and their embedding-store rows are marked dirty. Dirty rows serve
// through the cold path (request-time extraction + forward pass on the new
// graph version) and are re-admitted warm on their first recompute.
//
// Requests already in flight when Apply commits may still answer from the
// pre-batch version — that, plus the gap between Apply returning and a
// node's next request, is the staleness window. From the first request
// after Apply returns, every served score reflects the mutated graph.
//
// Apply is safe to call concurrently with Score traffic and with other
// Apply calls (batches serialize).
//
// ctx is honored at batch boundaries: a context already done when the
// batch would commit aborts before mutating anything. A committed batch is
// never rolled back by cancellation.
func (s *Server) Apply(ctx context.Context, muts []graph.Mutation) (*ApplyResult, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	oldFlat := s.flat
	s.mu.Unlock()

	next, ver, errs := s.vg.Apply(muts)
	applied := make([]graph.Mutation, 0, len(muts))
	for i := range muts {
		if errs[i] == nil {
			applied = append(applied, muts[i])
		}
	}
	res := &ApplyResult{Version: ver, Applied: len(applied), Errs: errs}
	if len(applied) == 0 {
		return res, nil
	}
	s.applies.Add(1)
	s.mutations.Add(int64(len(applied)))

	newFlat := oldFlat.Rebind(next, applied)
	affected := s.dep.invalidate(next, applied, s.cfg.Hops)

	s.mu.Lock()
	s.flat = newFlat
	s.version = ver
	for _, id := range affected {
		if s.cache.remove(id) {
			res.Invalidated++
		}
		// Detach any in-flight computation for an affected node: its
		// waiters (who arrived before this commit) still get its result,
		// but requests arriving after Apply returns must not collapse onto
		// a pre-mutation computation — they start a fresh one on the new
		// version. The detached call's result is also barred from the
		// cache by the version fence in process().
		delete(s.inflight, id)
		if _, wasDirty := s.dirty[id]; wasDirty {
			continue
		}
		// A warm row needing invalidation can live in the base store OR
		// only in the overlay (re-admitted rows shadow the store; rows
		// installed by a slot migration may have no store row at all on
		// this replica). Either way it goes dirty: the lookup misses, the
		// next request recomputes cold on the new version, and the first
		// recompute re-admits it warm.
		_, inStore := s.store.LookupRow(id)
		_, inOverlay := s.overlay[id]
		if inStore || inOverlay {
			s.dirty[id] = struct{}{}
			delete(s.overlay, id) // a re-admitted embedding is stale too
			res.Invalidated++
		}
	}
	s.mu.Unlock()
	s.invalidations.Add(int64(res.Invalidated))
	return res, nil
}

// Graph returns the server's current graph snapshot and its version. The
// snapshot is immutable and stays consistent across later mutations.
func (s *Server) Graph() (*graph.Graph, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flat.Graph(), s.version
}

// MutationsSince returns the applied mutation batches committed after
// version, oldest first — the catch-up feed for replicas, downstream
// indexes, or audit trails (the log is bounded at graph.DefaultLogCap
// batches). ok is false when the log has been trimmed past the requested
// version and the caller must resync from a fresh Graph() snapshot.
func (s *Server) MutationsSince(version uint64) (entries []graph.LogEntry, ok bool) {
	return s.vg.Since(version)
}
