package serve

import (
	"context"
	"fmt"
)

// This file is the Server's row-level surface for the cluster layer
// (replica.go): embedding extraction for cross-shard scatter-gather, and
// the bulk row snapshot/install/drop primitives the slot-migration
// protocol is built from. Rows move through this surface in their native
// codec (Row), so a quantized store migrates and scatter-gathers packed
// int8 payloads without round-tripping through float64. None of it is
// needed (or reached) in single-process serving.

// EmbedRow returns node's layer-K embedding in its stored codec — the
// scatter half of cross-shard link scoring. Warm rows return immediately
// (cloned, caller-owned); everything else resolves through the same
// micro-batched single-flight cold pipeline as Score (admission control
// and deadlines included) and comes back full-precision.
func (s *Server) EmbedRow(ctx context.Context, node int64) (Row, error) {
	rows, errs := s.embedRows(ctx, []int64{node})
	return rows[0], errs[0]
}

// embedRows is EmbedRow for a group of nodes, positional like ScoreMany:
// every missing row is queued before any is waited on, so the endpoints of
// one link request share a micro-batch.
func (s *Server) embedRows(ctx context.Context, nodes []int64) ([]Row, []error) {
	rows := make([]Row, len(nodes))
	errs := make([]error, len(nodes))
	calls := make([]*call, len(nodes))
	for i, id := range nodes {
		rows[i], calls[i], errs[i] = s.embedStart(ctx, id)
	}
	for i, c := range calls {
		if c == nil {
			// embedStart's warm path returns a view into store memory; clone
			// so the result survives the store (and any RPC serialization
			// happening off this goroutine).
			rows[i] = rows[i].Clone()
			continue
		}
		if _, errs[i] = s.wait(ctx, c); errs[i] == nil {
			// c.emb is shared with every other waiter on the call; copy.
			rows[i] = F64Row(append([]float64(nil), c.emb...))
		}
	}
	return rows, errs
}

// Embed returns node's layer-K embedding decoded to float64s the caller
// owns. Prefer EmbedRow where the codec should survive (wire transfer,
// quantized link scoring); Embed is the decode-at-the-edge form.
func (s *Server) Embed(ctx context.Context, node int64) ([]float64, error) {
	row, err := s.EmbedRow(ctx, node)
	if err != nil {
		return nil, err
	}
	return row.Floats(nil), nil
}

// RowsInSlot snapshots every clean warm row whose id falls in the given
// hash slot — the migration payload, in each row's native codec. Dirty
// rows are deliberately excluded: they carry no servable value, and the
// destination recomputes them cold exactly as this replica would have.
// Rows are deep copies.
func (s *Server) RowsInSlot(slot, slots int, slotOf func(id int64, slots int) int) map[int64]Row {
	out := make(map[int64]Row)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Range(func(id int64, row Row) bool {
		if _, shadowed := s.overlay[id]; !shadowed && slotOf(id, slots) == slot {
			out[id] = row.Clone()
		}
		return true
	})
	for id, row := range s.overlay {
		if !row.IsZero() && slotOf(id, slots) == slot {
			out[id] = row.Clone()
		}
	}
	return out
}

// InstallRows admits migrated rows into the warm tier (the overlay, which
// shadows the base store), preserving each row's codec. A row this replica
// has already marked dirty is NOT resurrected: the dirty mark records a
// mutation the incoming snapshot may predate, and a cold recompute is
// always correct while a stale warm row never is.
func (s *Server) InstallRows(rows map[int64]Row) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, row := range rows {
		row = row.Clone()
		if old, ok := s.overlay[id]; row.IsZero() || (ok && old.IsZero()) {
			continue
		}
		s.overlay[id] = row
		n++
	}
	return n
}

// DropRows discards the overlay rows and cache entries of every id
// matching the predicate — the source-side cleanup after a slot migrates
// away — and reports how many warm overlay rows it dropped. It never
// exposes a base store row the overlay was shadowing: the store is
// read-only and that row may predate a mutation, so the id keeps (or
// gets) a dirty mark instead, and a stale router asking this replica
// anyway still gets a correct answer, just a slower one.
func (s *Server) DropRows(match func(id int64) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, row := range s.overlay {
		if !match(id) {
			continue
		}
		if !row.IsZero() {
			n++
		}
		if _, inStore := s.store.LookupRow(id); inStore {
			s.setRowLocked(id, Row{})
			continue
		}
		if row.IsZero() {
			s.dirtyRows--
		}
		delete(s.overlay, id)
	}
	for _, id := range s.cache.keys() {
		if match(id) {
			s.cache.remove(id)
		}
	}
	return n
}

// keys lists the cached ids (callers hold the server mutex).
func (l *lruCache) keys() []int64 {
	out := make([]int64, 0, len(l.m))
	for id := range l.m {
		out = append(out, id)
	}
	return out
}

// ScoreVecLink scores a link directly from two endpoint rows — the gather
// half of cross-shard link scoring, used by the cluster router once both
// rows arrive. Rows are scored in their native codecs: two quantized rows
// under a dot-product head never dequantize. The model must have an edge
// head. ctx is checked once up front (the scoring itself is a few
// arithmetic ops — too small to be interruptible).
func (s *Server) ScoreVecLink(ctx context.Context, u, v Row) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.model.Edge == nil {
		return 0, ErrNoEdgeHead
	}
	if u.Dim() != s.model.Cfg.Hidden || v.Dim() != s.model.Cfg.Hidden {
		return 0, fmt.Errorf("serve: row dim (%d,%d) does not match model hidden %d",
			u.Dim(), v.Dim(), s.model.Cfg.Hidden)
	}
	return s.scoreRows(u, v), nil
}
