package serve

import (
	"context"

	"agl/internal/graph"
)

// This file is the serving tier's dynamic-graph machinery: the k-hop
// invalidation walk that turns a mutation batch into the exact set of
// invalidated nodes, and Server.Apply, which commits a batch, evicts
// precisely those entries from the score cache and marks their warm rows
// dirty.
//
// Consistency model. A node's served score depends on its k-hop in-edge
// neighborhood (the GraphFeature extraction walks in-edges backwards from
// the target). Mutating node v — its features, or an edge into it —
// therefore affects exactly the targets reachable FROM v within K hops
// along out-edges. The walk is a BFS over the graph snapshots' own
// out-rows from the batch's seed nodes; everything reached is invalidated.
// The server keeps no adjacency of its own, so a batch costs the walk and
// nothing proportional to the graph.
//
// The BFS deliberately follows the full fan-out rather than the sampled
// fan-out used at extraction time: sampling (FlatConfig.MaxNeighbors +
// Strategy) decides per node which in-edges survive, and a mutation of
// the node's in-edges can flip that decision arbitrarily, so bounding the
// dependency walk by the sampled set would under-invalidate. Full fan-out
// over-approximates — an invalidation is never missed, at worst a few
// unaffected entries recompute once.

// invalidated returns the ids of every node whose k-hop extraction may have
// changed under muts, the applied batch that took old to next.
//
// The BFS runs over the union of old's and next's out-rows: an edge the
// batch removed is still in old's row, one it added is in next's — so
// entries computed under either version are covered, including cycles
// routed through a removed edge.
func invalidated(old, next *graph.Graph, muts []graph.Mutation, hops int) []int64 {
	affected := map[int32]bool{}
	var frontier []int32
	visit := func(v int32) {
		if !affected[v] {
			affected[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, m := range muts {
		id := m.ID
		if m.Op == graph.OpAddEdge || m.Op == graph.OpRemoveEdge {
			id = m.Dst
		}
		if i, ok := next.Index(id); ok {
			visit(int32(i))
		}
	}
	for depth := 0; depth < hops && len(frontier) > 0; depth++ {
		reached := frontier
		frontier = nil
		for _, u := range reached {
			for _, v := range next.OutRow(int(u)) {
				visit(v)
			}
			if int(u) < old.NumNodes() {
				for _, v := range old.OutRow(int(u)) {
					visit(v)
				}
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
	// Invalidated counts cache entries evicted plus warm rows (store or
	// overlay-only) newly marked dirty by this batch.
	Invalidated int
}

// Apply commits a mutation batch to the serving graph and incrementally
// invalidates everything the batch can have affected: the k-hop BFS picks
// the affected node set, their score-cache entries are evicted,
// and their warm rows are marked dirty. Dirty rows serve
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
	affected := invalidated(oldFlat.Graph(), next, applied, s.cfg.Hops)

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
		// version — and finish neither caches nor re-admits the detached
		// call's result.
		delete(s.inflight, id)
		// A warm row, in the base store or only in the overlay (re-admitted,
		// or installed by a slot migration), goes dirty: a zero overlay row
		// shadows it, the next request recomputes cold on the new version,
		// and the first recompute re-admits it warm.
		if _, warm := s.lookupRowLocked(id); warm {
			s.setRowLocked(id, Row{})
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
