package serve

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/graph"
)

// The row-state tests drive a Server's row bookkeeping (overlay, dirty
// marks, in-flight calls, cache) one event at a time with no batcher
// involved: calls are registered with startLocked and resolved with finish
// after the test sets each call's result itself.

// rowStateFeats are the fixed features an Apply gives node i. With three
// nodes whose features are each either original or fixed, the graph has
// eight states, named by the bitmask of nodes already set.
var rowStateFeats = [3][]float64{{5, -1}, {-3, 2}, {0.5, 7}}

// rowStateRef is the reference for one graph state: cold scores and
// layer-K embeddings of nodes 0–2.
type rowStateRef struct {
	scores map[int64][]float64
	embs   map[int64][]float64
}

// rowStateFixture builds the chain 0→1→2 (2 hops: setting node 0 touches
// {0,1,2}, node 1 touches {1,2}, node 2 touches {2}), a 2-layer model, a
// store holding the state-0 rows of nodes 0 and 1 (node 2 has no store
// row), and the reference of all eight states.
func rowStateFixture(t *testing.T) (Config, *gnn.Model, *graph.Graph, *RowStore, [8]rowStateRef) {
	t.Helper()
	nodes := []graph.Node{
		{ID: 0, Feat: []float64{0.1, 1}},
		{ID: 1, Feat: []float64{0.4, -0.5}},
		{ID: 2, Feat: []float64{-0.7, 0.3}},
	}
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.KindGCN, InDim: 2, Hidden: 4, Classes: 1, Layers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, FlightInterval: -1}
	ids := []int64{0, 1, 2}
	var refs [8]rowStateRef
	for mask := range refs {
		state := make([]graph.Node, len(nodes))
		copy(state, nodes)
		for i := range state {
			if mask&(1<<i) != 0 {
				state[i].Feat = rowStateFeats[i]
			}
		}
		sg, err := graph.Build(state, edges)
		if err != nil {
			t.Fatal(err)
		}
		ref := rowStateRef{scores: coldRecompute(t, cfg, model, sg, ids), embs: map[int64][]float64{}}
		srv, err := New(cfg, cloneModel(t, model), sg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if ref.embs[id], err = srv.Embed(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		refs[mask] = ref
	}
	store, err := NewStore(0, map[int64][]float64{0: refs[0].embs[0], 1: refs[0].embs[1]})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, model, g, store, refs
}

// rowStateRun is one event sequence on a fresh server.
type rowStateRun struct {
	t        *testing.T
	srv      *Server
	refs     *[8]rowStateRef
	mask     int // current graph state
	pending  []pendingCall
	finished []*call
	trace    []string
}

// pendingCall is a registered call and the graph state it registered at.
type pendingCall struct {
	c    *call
	mask int
}

const (
	evRegister = iota
	evFinish   // finish the pending call at position id
	evApply
	evInstall
	evDrop
	evRead
	evKinds
)

var evNames = [evKinds]string{"register", "finish", "apply", "install", "drop", "read"}

// step applies one event and reports false when it is a no-op (finish with
// no call at that position, read of an id with no warm or cached answer):
// the sequence is then equal to a shorter one and the caller stops it.
func (r *rowStateRun) step(kind int, id int64) bool {
	r.t.Helper()
	s, ctx := r.srv, context.Background()
	r.trace = append(r.trace, fmt.Sprintf("%s(%d)", evNames[kind], id))
	switch kind {
	case evRegister:
		s.mu.Lock()
		row, c, fresh, err := s.startLocked(ctx, id, time.Now())
		s.mu.Unlock()
		switch {
		case err != nil:
			r.t.Fatalf("%v: startLocked: %v", r.trace, err)
		case c == nil:
			r.checkScores("warm start", id, warmScores(s, row))
		case fresh:
			s.queued.Add(-1) // received, as the batcher would
			r.pending = append(r.pending, pendingCall{c, r.mask})
		}
	case evFinish:
		if int(id) >= len(r.pending) {
			return false
		}
		p := r.pending[id]
		r.pending = append(r.pending[:id], r.pending[id+1:]...)
		// The result a call carries is the reference at its registration
		// state: the stalest value it could legally carry.
		p.c.scores = r.refs[p.mask].scores[p.c.id]
		p.c.emb = append([]float64(nil), r.refs[p.mask].embs[p.c.id]...)
		s.finish([]*call{p.c})
		r.finished = append(r.finished, p.c)
	case evApply:
		res, err := s.Apply(ctx, []graph.Mutation{graph.UpdateNodeFeat(id, rowStateFeats[id])})
		if err != nil || res.Applied != 1 {
			r.t.Fatalf("%v: apply: %v %+v", r.trace, err, res)
		}
		r.mask |= 1 << id
	case evInstall:
		s.InstallRows(floatRows(map[int64][]float64{id: r.refs[r.mask].embs[id]}))
	case evDrop:
		s.DropRows(func(x int64) bool { return x == id })
	case evRead:
		s.mu.Lock()
		_, cached := s.cache.m[id]
		_, warm := s.lookupRowLocked(id)
		s.mu.Unlock()
		if !cached && !warm {
			return false
		}
		got, err := s.Score(ctx, id)
		if err != nil {
			r.t.Fatalf("%v: read: %v", r.trace, err)
		}
		r.checkScores("read", id, got)
	}
	r.checkInvariants()
	return true
}

// warmScores runs the prediction slice on a warm row, as the warm path does.
func warmScores(s *Server, row Row) []float64 {
	return core.ScoresFromLogits(gnn.ApplyDense(s.head.Head, row.Floats(nil)))
}

func (r *rowStateRun) checkScores(what string, id int64, got []float64) {
	r.t.Helper()
	want := r.refs[r.mask].scores[id]
	if len(got) != len(want) {
		r.t.Fatalf("%v: %s of %d: %v, want %v (state %03b)", r.trace, what, id, got, want, r.mask)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			r.t.Fatalf("%v: %s of %d: %v, want %v (state %03b)", r.trace, what, id, got, want, r.mask)
		}
	}
}

// checkInvariants holds after every step: every warm or cached answer is
// the current state's reference, the dirty counter counts the zero rows in
// the overlay, no finished call is still registered, and every pending
// call holds its admission slot.
func (r *rowStateRun) checkInvariants() {
	r.t.Helper()
	s := r.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := int64(0); id < 3; id++ {
		if e, ok := s.cache.m[id]; ok {
			r.checkScores("cached", id, e.Value.(*lruEntry).scores)
		}
		if row, ok := s.lookupRowLocked(id); ok {
			r.checkScores("warm", id, warmScores(s, row))
		}
	}
	zero := int64(0)
	for _, row := range s.overlay {
		if row.IsZero() {
			zero++
		}
	}
	if zero != s.dirtyRows {
		r.t.Fatalf("%v: dirty counter %d, %d zero rows in the overlay", r.trace, s.dirtyRows, zero)
	}
	for _, c := range r.finished {
		if s.inflight[c.id] == c {
			r.t.Fatalf("%v: finished call for %d still in flight", r.trace, c.id)
		}
	}
	if got := s.adm.pending.Load(); got != int64(len(r.pending)) {
		r.t.Fatalf("%v: %d admission slots held, %d calls pending", r.trace, got, len(r.pending))
	}
}

// TestRowStateSequences runs every sequence of depth 4 over the alphabet
// {register, finish, Apply, InstallRows, DropRows, read} × ids 0–2 (finish
// takes a position in the pending list) against a fresh store-backed
// server, checking the row-state invariants after each step. A sequence
// stops at its first no-op, and the sequences sharing that prefix are
// skipped.
func TestRowStateSequences(t *testing.T) {
	const depth, alphabet = 4, evKinds * 3
	cfg, model, g, store, refs := rowStateFixture(t)
	// No forward pass runs (the test resolves every call itself), so the
	// servers can share one model.
	model = cloneModel(t, model)
	start := time.Now()
	total := 1
	for k := 0; k < depth; k++ {
		total *= alphabet
	}
	seqs := 0
	for n := 0; n < total; {
		srv, err := New(cfg, model, g, store)
		if err != nil {
			t.Fatal(err)
		}
		r := &rowStateRun{t: t, srv: srv, refs: &refs}
		next := n + 1
		for k, block := 0, total/alphabet; k < depth; k, block = k+1, block/alphabet {
			ev := n / block % alphabet
			if !r.step(ev/3, int64(ev%3)) {
				next = (n/block + 1) * block
				break
			}
		}
		// Resolve what is left, as the batcher would, so Close has
		// nothing outstanding.
		for len(r.pending) > 0 {
			r.step(evFinish, 0)
		}
		srv.Close()
		seqs++
		n = next
	}
	t.Logf("%d sequences of depth %d in %v", seqs, depth, time.Since(start).Round(time.Millisecond))
}

// TestFinishFencesEachCall: a call for a node the Apply did not touch is
// cached when it finishes after the Apply; a touched node's call is not,
// and neither is it re-admitted.
func TestFinishFencesEachCall(t *testing.T) {
	cfg, model, g, _, refs := rowStateFixture(t)
	srv, err := New(cfg, cloneModel(t, model), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := &rowStateRun{t: t, srv: srv, refs: &refs}
	r.step(evRegister, 1)
	r.step(evRegister, 2)
	r.step(evApply, 2) // touches {2} only
	r.step(evFinish, 0)
	r.step(evFinish, 0)
	srv.mu.Lock()
	_, cached1 := srv.cache.m[1]
	_, cached2 := srv.cache.m[2]
	srv.mu.Unlock()
	if !cached1 {
		t.Fatal("untouched node's result was not cached after an Apply")
	}
	if cached2 {
		t.Fatal("touched node's pre-Apply result was cached")
	}
}
