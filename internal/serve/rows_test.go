package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"agl/internal/gnn"
	"agl/internal/graph"
)

// slotMod is the test slot function: trivially invertible so each case can
// place ids in slots by construction.
func slotMod(id int64, slots int) int { return int(id % int64(slots)) }

// floatRows wraps a float64 row map as CodecF64 Rows (referencing the
// slices, not copying) — the adapter for callers holding raw GraphInfer
// embeddings.
func floatRows(rows map[int64][]float64) map[int64]Row {
	out := make(map[int64]Row, len(rows))
	for id, emb := range rows {
		out[id] = F64Row(emb)
	}
	return out
}

// warmRow reports whether id currently serves warm (clean store or overlay
// row) — the observable of migration.
func warmRow(s *Server, id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.lookupRowLocked(id)
	return ok
}

// TestRowSurfaceForMigration exercises the Server primitives the slot
// migration protocol is assembled from: snapshot (RowsInSlot), install
// (InstallRows), drop (DropRows), and the warm-row observable — including
// the dirty-row exclusions that make a migrated snapshot always safe to
// serve.
func TestRowSurfaceForMigration(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadBilinear)
	store, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	ids := g.IDs()
	var even, odd int64 = -1, -1
	for _, id := range ids {
		if id%2 == 0 && even < 0 {
			even = id
		}
		if id%2 == 1 && odd < 0 {
			odd = id
		}
	}
	if even < 0 || odd < 0 {
		t.Fatal("dataset has no even/odd id pair")
	}

	// Dirty one even id via a real mutation: the snapshot must skip it.
	if _, err := srv.Apply(ctx, []graph.Mutation{graph.UpdateNodeFeat(even, make([]float64, g.FeatureDim()))}); err != nil {
		t.Fatal(err)
	}
	rows := srv.RowsInSlot(0, 2, slotMod)
	if _, ok := rows[even]; ok {
		t.Fatalf("dirty row %d leaked into the migration snapshot", even)
	}
	if _, ok := rows[odd]; ok {
		t.Fatalf("slot-1 row %d leaked into the slot-0 snapshot", odd)
	}
	if len(rows) == 0 {
		t.Fatal("slot-0 snapshot empty")
	}

	// InstallRows must not resurrect the dirty row, and an overlay-only id
	// (no base store row) must round-trip through the next snapshot.
	ghost := ids[len(ids)-1]*2 + 2 // even, not in the store
	installed := srv.InstallRows(floatRows(map[int64][]float64{
		even:  make([]float64, model.Cfg.Hidden),
		ghost: make([]float64, model.Cfg.Hidden),
	}))
	if installed != 1 {
		t.Fatalf("installed %d rows, want 1 (dirty id must be refused)", installed)
	}
	if !warmRow(srv, ghost) || warmRow(srv, even) {
		t.Fatalf("warm observability wrong: ghost=%v dirty=%v", warmRow(srv, ghost), warmRow(srv, even))
	}
	rows = srv.RowsInSlot(0, 2, slotMod)
	if _, ok := rows[ghost]; !ok {
		t.Fatal("overlay-only row missing from snapshot")
	}

	// DropRows clears the overlay and dirty bookkeeping for the slot.
	dropped := srv.DropRows(func(id int64) bool { return slotMod(id, 2) == 0 })
	if dropped != 1 {
		t.Fatalf("dropped %d overlay rows, want 1", dropped)
	}
	if warmRow(srv, ghost) {
		t.Fatal("dropped row still serves warm")
	}
}

// TestEmbedTiersAndScoreVecLink pins the scatter-gather halves to the
// single-process link path: owner-side Embed (warm and cold) feeding
// ScoreVecLink must reproduce ScoreLink's logit exactly.
func TestEmbedTiersAndScoreVecLink(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadBilinear)
	store, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	coldModel, err := gnn.UnmarshalModel(mustMarshal(t, model))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{Seed: 4}, coldModel, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	ctx := context.Background()

	ids := g.IDs()
	u, v := ids[0], ids[1]
	hu, err := warm.Embed(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	hv, err := warm.Embed(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	// The warm result is a copy, not a store view.
	orig := hu[0]
	hu[0] = math.Inf(1)
	again, err := warm.Embed(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != orig {
		t.Fatal("Embed returned a store view: caller mutation leaked back")
	}
	hu[0] = orig

	gathered, err := warm.ScoreVecLink(ctx, F64Row(hu), F64Row(hv))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := warm.ScoreLink(ctx, u, v)
	if err != nil {
		t.Fatal(err)
	}
	if gathered != direct {
		t.Fatalf("gathered %v != direct %v", gathered, direct)
	}

	// Cold Embed (no store) runs the batcher and agrees with warm.
	chu, err := cold.Embed(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chu {
		if math.Abs(chu[i]-hu[i]) > 1e-9 {
			t.Fatalf("cold embed dim %d: %v vs warm %v", i, chu[i], hu[i])
		}
	}

	// Error surface: unknown id, dimension mismatch, missing edge head.
	if _, err := warm.Embed(ctx, 1<<40); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown-node embed err = %v", err)
	}
	if _, err := warm.ScoreVecLink(ctx, F64Row(hu[:1]), F64Row(hv)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	plainModel, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: g.FeatureDim(), Hidden: 8, Classes: 1, Layers: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{Seed: 4}, plainModel, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.ScoreVecLink(ctx, F64Row(hu), F64Row(hv)); !errors.Is(err, ErrNoEdgeHead) {
		t.Fatalf("edge-head-less ScoreVecLink err = %v", err)
	}
}

// TestFlightAccessors covers the recorder's observability surface: the
// ring's Len/Seq bookkeeping past wraparound and the server-level
// spec/samples accessors.
func TestFlightAccessors(t *testing.T) {
	ring, err := NewFlightRing(3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	for i := 0; i < 5; i++ {
		if err := ring.Append(FlightSample{UnixNanos: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ring.Len() != 3 || ring.Seq() != 5 {
		t.Fatalf("ring Len=%d Seq=%d, want 3/5 after wraparound", ring.Len(), ring.Seq())
	}

	g, model, _ := testLinkGraph(t, gnn.EdgeHeadBilinear)
	srv, err := New(Config{Seed: 4}, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if spec := srv.FlightInfo(); spec.Slots != flightSlots || spec.Interval <= 0 {
		t.Fatalf("flight spec %+v", spec)
	}
	if srv.Flight() == nil {
		t.Fatal("always-on recorder returned nil samples slice")
	}
}

// TestDropRowsNeverExposesStaleStoreRows: DropRows after an Apply must not
// bring back the pre-mutation store row of a dropped id, whether the id is
// still dirty or was re-admitted (an overlay row shadowing the store row).
func TestDropRowsNeverExposesStaleStoreRows(t *testing.T) {
	g, model, res := testGraph(t)
	store, err := NewStore(0, res.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4, CacheSize: 1}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	dirty, readmitted := g.Nodes[0].ID, g.Nodes[1].ID
	if _, err := srv.Apply(ctx, []graph.Mutation{
		graph.UpdateNodeFeat(dirty, make([]float64, g.FeatureDim())),
		graph.UpdateNodeFeat(readmitted, make([]float64, g.FeatureDim())),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Score(ctx, readmitted); err != nil {
		t.Fatal(err)
	}
	if !warmRow(srv, readmitted) || warmRow(srv, dirty) {
		t.Fatal("setup: want one re-admitted and one dirty row")
	}
	srv.DropRows(func(id int64) bool { return id == dirty || id == readmitted })
	cur, _ := srv.Graph()
	want := coldRecompute(t, Config{Seed: 4}, cloneModel(t, model), cur, []int64{dirty, readmitted})
	for _, id := range []int64{dirty, readmitted} {
		if warmRow(srv, id) {
			t.Fatalf("DropRows exposed the store row of %d", id)
		}
		got, err := srv.Score(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-want[id][0]) > 1e-9 {
			t.Fatalf("node %d after DropRows: %v, recompute %v", id, got[0], want[id][0])
		}
	}
}
