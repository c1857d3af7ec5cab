package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/graph"
)

// cloneModel deep-copies a model through its serialized form — Server owns
// its model, so reference recomputation needs a second instance.
func cloneModel(t testing.TB, m *gnn.Model) *gnn.Model {
	t.Helper()
	b, err := gnn.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := gnn.UnmarshalModel(b)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// coldRecompute scores ids from scratch on g: a fresh all-cold server
// (no store, no prior cache) over the given graph — the ground truth the
// incrementally invalidated server must match.
func coldRecompute(t testing.TB, cfg Config, m *gnn.Model, g *graph.Graph, ids []int64) map[int64][]float64 {
	t.Helper()
	ref, err := New(cfg, cloneModel(t, m), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	out := make(map[int64][]float64, len(ids))
	for _, id := range ids {
		s, err := ref.Score(context.Background(), id)
		if err != nil {
			t.Fatalf("recompute node %d: %v", id, err)
		}
		out[id] = s
	}
	return out
}

// randomMutations builds a valid batch against cur: edge adds/removes
// between existing nodes, feature updates, occasional node adds.
func randomMutations(rng *rand.Rand, cur *graph.Graph, nextID *int64, n int) []graph.Mutation {
	var muts []graph.Mutation
	removed := map[[2]int64]bool{}
	for k := 0; k < n; k++ {
		switch rng.Intn(5) {
		case 0:
			feat := make([]float64, cur.FeatureDim())
			for j := range feat {
				feat[j] = rng.NormFloat64()
			}
			muts = append(muts, graph.AddNode(*nextID, feat))
			*nextID++
		case 1, 2:
			s := cur.Nodes[rng.Intn(cur.NumNodes())].ID
			d := cur.Nodes[rng.Intn(cur.NumNodes())].ID
			if s != d {
				muts = append(muts, graph.AddEdge(s, d, 1+rng.Float64()))
			}
		case 3:
			if cur.NumEdges() > 0 {
				e := cur.EdgeTable()[rng.Intn(cur.NumEdges())]
				key := [2]int64{e.Src, e.Dst}
				if !removed[key] {
					removed[key] = true
					muts = append(muts, graph.RemoveEdge(e.Src, e.Dst))
				}
			}
		case 4:
			id := cur.Nodes[rng.Intn(cur.NumNodes())].ID
			feat := make([]float64, cur.FeatureDim())
			for j := range feat {
				feat[j] = rng.NormFloat64()
			}
			muts = append(muts, graph.UpdateNodeFeat(id, feat))
		}
	}
	return muts
}

// buildBackend materializes a store over GraphInfer embeddings, on the heap
// or round-tripped through a store file and mmap'd. Consistency suites run
// over both — the serving tier must behave identically regardless of where
// the rows live, and for the mapped store the dirty-row overlay must shadow
// rows without ever writing the (read-only) mapped file.
func buildBackend(t *testing.T, name string, embs map[int64][]float64) *RowStore {
	t.Helper()
	mem, err := NewStore(0, embs)
	if err != nil {
		t.Fatal(err)
	}
	if name == "mmap" {
		return openSaved(t, mem, true)
	}
	return mem
}

// storeBackendNames lists the store residencies the parameterized
// consistency suites cover.
var storeBackendNames = []string{"mem", "mmap"}

// TestIncrementalConsistencyWithStore is the tentpole property test: a
// store-backed server receives random mutation batches, and after every
// Apply each served score must equal a from-scratch cold recompute on the
// mutated graph. Sampling is disabled so extractions are
// information-complete and the comparison is exact: unaffected rows keep
// serving warm off the original store, so the test proves invalidation is
// broad enough (no stale row survives) while the warm/cold accounting
// proves it is not absurdly over-broad (warm traffic remains). It runs
// over both store backends.
func TestIncrementalConsistencyWithStore(t *testing.T) {
	for _, backend := range storeBackendNames {
		t.Run(backend, func(t *testing.T) { testIncrementalConsistency(t, backend) })
	}
}

func testIncrementalConsistency(t *testing.T, backend string) {
	g, model, res := testGraph(t)
	store := buildBackend(t, backend, res.Embeddings)
	cfg := Config{Seed: 4}
	srv, err := New(cfg, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	refModel := cloneModel(t, model)
	rng := rand.New(rand.NewSource(99))
	nextID := int64(1 << 30)
	for batch := 0; batch < 5; batch++ {
		cur, _ := srv.Graph()
		muts := randomMutations(rng, cur, &nextID, 1+rng.Intn(6))
		ar, err := srv.Apply(context.Background(), muts)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ar.Errs {
			if e != nil {
				t.Fatalf("batch %d mutation %d (%+v): %v", batch, i, muts[i], e)
			}
		}

		cur, ver := srv.Graph()
		if ver != ar.Version {
			t.Fatalf("Graph() version %d, Apply reported %d", ver, ar.Version)
		}
		want := coldRecompute(t, cfg, refModel, cur, cur.IDs())
		for _, id := range cur.IDs() {
			got, err := srv.Score(context.Background(), id)
			if err != nil {
				t.Fatalf("batch %d node %d: %v", batch, id, err)
			}
			for j := range want[id] {
				if math.Abs(got[j]-want[id][j]) > 1e-9 {
					t.Fatalf("batch %d node %d dim %d: served %v, cold recompute %v",
						batch, id, j, got[j], want[id][j])
				}
			}
		}
	}
	st := srv.Stats()
	if st.Warm == 0 {
		t.Fatalf("invalidation evicted everything — expected surviving warm rows, got %+v", st)
	}
	if st.Applies != 5 || st.Mutations == 0 || st.Invalidated == 0 {
		t.Fatalf("mutation accounting off: %+v", st)
	}
	// The store is read-only: dirty rows live in the resident overlay, so
	// after all the mutation traffic its sections must still checksum
	// clean.
	if err := store.Verify(); err != nil {
		t.Fatalf("dynamic serving wrote through to the store: %v", err)
	}
}

// TestIncrementalConsistencySampled repeats the property under neighbor
// sampling (all-cold server, so extraction sampling is the only score
// source): post-mutation scores must match a fresh server with identical
// sampling config over the mutated graph — cache invalidation and the
// rebound flattener cannot leak pre-mutation state.
func TestIncrementalConsistencySampled(t *testing.T) {
	g, model, _ := testGraph(t)
	cfg := Config{Seed: 4, MaxNeighbors: 3}
	srv, err := New(cfg, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	refModel := cloneModel(t, model)
	rng := rand.New(rand.NewSource(5))
	nextID := int64(1 << 30)

	// Pre-warm the cache so stale entries exist to invalidate.
	ids := g.IDs()[:60]
	for _, id := range ids {
		if _, err := srv.Score(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	for batch := 0; batch < 4; batch++ {
		cur, _ := srv.Graph()
		muts := randomMutations(rng, cur, &nextID, 1+rng.Intn(5))
		if _, err := srv.Apply(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
		cur, _ = srv.Graph()
		want := coldRecompute(t, cfg, refModel, cur, ids)
		for _, id := range ids {
			got, err := srv.Score(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got[0]-want[id][0]) > 1e-9 {
				t.Fatalf("batch %d node %d: served %v, fresh sampled recompute %v",
					batch, id, got[0], want[id][0])
			}
		}
	}
}

// lineServer builds an all-cold server over a 6-node directed chain
// 0→1→2→3→4→5 with a 2-layer model — invalidation distances are exact
// and easy to reason about.
func lineServer(t *testing.T) (*Server, *gnn.Model) {
	t.Helper()
	const n = 6
	nodes := make([]graph.Node, n)
	var edges []graph.Edge
	for i := range nodes {
		nodes[i] = graph.Node{ID: int64(i), Feat: []float64{float64(i) / n, 1}}
		if i > 0 {
			edges = append(edges, graph.Edge{Src: int64(i - 1), Dst: int64(i), Weight: 1})
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 2, Hidden: 4, Classes: 1, Layers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 1}, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, model
}

// TestInvalidationScope pins the k-hop dependency semantics on a chain
// 0→1→2→3→4→5 with K=2: mutating node 0's features must invalidate
// exactly {0, 1, 2}.
func TestInvalidationScope(t *testing.T) {
	srv, _ := lineServer(t)
	defer srv.Close()

	// Warm the cache for every node.
	for id := int64(0); id < 6; id++ {
		if _, err := srv.Score(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Stats()
	ar, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(0, []float64{9, 9})})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 1 || ar.Version != 1 {
		t.Fatalf("apply result %+v", ar)
	}
	if ar.Invalidated != 3 { // cache entries for 0, 1, 2 (no store rows)
		t.Fatalf("invalidated %d entries, want 3 (nodes 0,1,2)", ar.Invalidated)
	}

	// Nodes 3..5 must still answer from the cache; 0..2 recompute.
	for id := int64(0); id < 6; id++ {
		if _, err := srv.Score(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != 3 {
		t.Fatalf("%d cache hits after invalidation, want 3 (nodes 3,4,5)", hits)
	}
	if cold := after.Cold - before.Cold; cold != 3 {
		t.Fatalf("%d cold recomputes, want 3 (nodes 0,1,2)", cold)
	}
}

// TestDirtyRowReadmission: an invalidated store row serves cold exactly
// once, then returns to the warm tier with its recomputed embedding. Runs
// over both store backends — for the mmap backend the readmitted row lands
// in the overlay, never in the file.
func TestDirtyRowReadmission(t *testing.T) {
	for _, backend := range storeBackendNames {
		t.Run(backend, func(t *testing.T) { testDirtyRowReadmission(t, backend) })
	}
}

func testDirtyRowReadmission(t *testing.T, backend string) {
	g, model, res := testGraph(t)
	store := buildBackend(t, backend, res.Embeddings)
	// CacheSize 1 so the cache cannot mask the warm/cold distinction.
	srv, err := New(Config{Seed: 4, CacheSize: 1}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := g.Nodes[0].ID
	if _, err := srv.Apply(context.Background(), []graph.Mutation{
		graph.UpdateNodeFeat(target, make([]float64, g.FeatureDim())),
	}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.DirtyRows == 0 {
		t.Fatalf("no dirty rows after mutating a stored node: %+v", st)
	}
	dirtyBefore := st.DirtyRows

	first, err := srv.Score(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.Cold == 0 || st.Readmitted != 1 {
		t.Fatalf("dirty row did not recompute cold + readmit: %+v", st)
	}
	if st.DirtyRows != dirtyBefore-1 {
		t.Fatalf("dirty gauge did not shrink: %d -> %d", dirtyBefore, st.DirtyRows)
	}

	// Evict the score cache entry, then re-request: must serve warm from
	// the overlay with the identical recomputed score.
	if _, err := srv.Score(context.Background(), g.Nodes[1].ID); err != nil {
		t.Fatal(err)
	}
	warmBefore := srv.Stats().Warm
	again, err := srv.Score(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Warm != warmBefore+1 {
		t.Fatalf("re-admitted row did not serve warm: %+v", srv.Stats())
	}
	if math.Abs(first[0]-again[0]) > 1e-12 {
		t.Fatalf("overlay score %v diverged from cold recompute %v", again[0], first[0])
	}
}

// TestApplyPartialFailureSemantics mirrors ScoreMany: bad mutations report
// positionally, good ones land.
func TestApplyPartialFailureSemantics(t *testing.T) {
	srv, _ := lineServer(t)
	defer srv.Close()
	ar, err := srv.Apply(context.Background(), []graph.Mutation{
		graph.AddEdge(0, 2, 1),     // ok
		graph.AddEdge(0, 12345, 1), // unknown node
		graph.RemoveEdge(5, 0),     // unknown edge
	})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 1 || ar.Errs[0] != nil {
		t.Fatalf("apply result %+v", ar)
	}
	if !errors.Is(ar.Errs[1], graph.ErrUnknownNode) || !errors.Is(ar.Errs[2], graph.ErrUnknownEdge) {
		t.Fatalf("errors %v", ar.Errs)
	}
	// All-failed batch: version must not advance.
	before := srv.Stats().Version
	ar, err = srv.Apply(context.Background(), []graph.Mutation{graph.RemoveEdge(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 0 || srv.Stats().Version != before {
		t.Fatalf("all-failed batch advanced version: %+v", ar)
	}
}

func TestApplyAfterCloseFails(t *testing.T) {
	srv, _ := lineServer(t)
	srv.Close()
	if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.AddEdge(0, 2, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}
}

// TestAddNodeServed: a node streamed in via Apply (with edges) is
// immediately scorable and consistent with a fresh recompute.
func TestAddNodeServed(t *testing.T) {
	g, model, res := testGraph(t)
	store, err := NewStore(8, res.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 4}
	srv, err := New(cfg, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const newID = int64(777777)
	feat := make([]float64, g.FeatureDim())
	feat[0] = 1
	anchor := g.Nodes[3].ID
	if _, err := srv.Apply(context.Background(), []graph.Mutation{
		graph.AddNode(newID, feat),
		graph.AddEdge(anchor, newID, 1),
		graph.AddEdge(newID, anchor, 1),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Score(context.Background(), newID)
	if err != nil {
		t.Fatalf("scoring a streamed-in node: %v", err)
	}
	cur, _ := srv.Graph()
	want := coldRecompute(t, cfg, cloneModel(t, model), cur, []int64{newID, anchor})
	if math.Abs(got[0]-want[newID][0]) > 1e-9 {
		t.Fatalf("new node score %v, recompute %v", got[0], want[newID][0])
	}
	gotAnchor, err := srv.Score(context.Background(), anchor)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotAnchor[0]-want[anchor][0]) > 1e-9 {
		t.Fatalf("anchor score %v, recompute %v (stale despite new in-edge)", gotAnchor[0], want[anchor][0])
	}
}

// TestApplyDetachesInflightCalls: a computation in flight on the
// pre-mutation version must not capture requests arriving after Apply
// returns — Apply detaches affected calls from the single-flight table so
// the next request computes fresh on the new version.
func TestApplyDetachesInflightCalls(t *testing.T) {
	srv, _ := lineServer(t)
	defer srv.Close()

	// Simulate an in-flight computation for node 0 (as if a batch had
	// snapshotted the old graph version and were mid-forward-pass).
	c := &call{id: 0, done: make(chan struct{})}
	srv.mu.Lock()
	srv.inflight[0] = c
	srv.mu.Unlock()

	if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(0, []float64{9, 9})}); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	_, still := srv.inflight[0]
	srv.mu.Unlock()
	if still {
		t.Fatal("Apply left an affected in-flight call collapsible")
	}
	// An unaffected node's in-flight call must NOT be detached: register
	// one for node 5 (outside node 0's 2-hop downstream) and mutate 0.
	c5 := &call{id: 5, done: make(chan struct{})}
	srv.mu.Lock()
	srv.inflight[5] = c5
	srv.mu.Unlock()
	if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(0, []float64{8, 8})}); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	_, still = srv.inflight[5]
	delete(srv.inflight, 5) // unregister the fake call before real traffic
	srv.mu.Unlock()
	if !still {
		t.Fatal("Apply detached an unaffected in-flight call")
	}

	// A request for the mutated node now computes fresh instead of
	// collapsing onto the stale call.
	before := srv.Stats()
	if _, err := srv.Score(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Collapsed != before.Collapsed {
		t.Fatalf("post-Apply request collapsed onto a pre-mutation computation: %+v", after)
	}
	if after.Cold != before.Cold+1 {
		t.Fatalf("post-Apply request did not recompute: %+v", after)
	}
}

// TestMutationsSince: the server's bounded catch-up log replays applied
// batches by version and reports trimming honestly.
func TestMutationsSince(t *testing.T) {
	srv, _ := lineServer(t)
	defer srv.Close()
	if entries, ok := srv.MutationsSince(0); !ok || len(entries) != 0 {
		t.Fatalf("fresh log: entries %v ok %v", entries, ok)
	}
	if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.AddEdge(0, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(context.Background(), []graph.Mutation{
		graph.UpdateNodeFeat(3, []float64{1, 1}),
		graph.RemoveEdge(5, 0), // invalid: filtered out of the log
	}); err != nil {
		t.Fatal(err)
	}
	entries, ok := srv.MutationsSince(0)
	if !ok || len(entries) != 2 {
		t.Fatalf("entries %v ok %v", entries, ok)
	}
	if entries[0].Version != 1 || len(entries[0].Muts) != 1 || entries[0].Muts[0].Op != graph.OpAddEdge {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[1].Version != 2 || len(entries[1].Muts) != 1 {
		t.Fatalf("entry 1 should hold only the applied mutation: %+v", entries[1])
	}
	if entries, ok := srv.MutationsSince(1); !ok || len(entries) != 1 || entries[0].Version != 2 {
		t.Fatalf("Since(1): %v ok %v", entries, ok)
	}
}

// TestInvalidationUnionCoversRemovedEdges: invalidation BFS must traverse
// edges that the same batch removes — targets downstream through a
// removed edge were computed with it present.
func TestInvalidationUnionCoversRemovedEdges(t *testing.T) {
	// 0→1→2: removing 1→2 changes node 2's neighborhood; the affected set
	// from seed 2 must be found even though the edge is gone from the new
	// snapshot. Also 0→1 removed in the same batch: seed 1 must still reach
	// 2 through the old snapshot's 1→2 row.
	nodes := []graph.Node{{ID: 0, Feat: []float64{1}}, {ID: 1, Feat: []float64{1}}, {ID: 2, Feat: []float64{1}}}
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	muts := []graph.Mutation{graph.RemoveEdge(0, 1), graph.RemoveEdge(1, 2)}
	next, errs := g.Apply(muts)
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	got := invalidated(g, next, muts, 2)
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	// Seeds are {1, 2}; 1 reaches 2 over the (removed) 1→2 edge.
	want := []int64{1, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("affected %v, want %v", got, want)
	}
	// One version on, the removed edges are in neither snapshot: a
	// follow-up feat change at 0 reaches nobody downstream.
	muts = []graph.Mutation{graph.UpdateNodeFeat(0, []float64{2})}
	next2, _ := next.Apply(muts)
	got = invalidated(next, next2, muts, 2)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("affected after edge removals %v, want [0]", got)
	}
}

// writeFixture is a graph of n nodes (dim features each) with edgesPerNode
// random edges a node, and a stream of 4-mutation batches against it in the
// benchmark's mix: two edge inserts, a removal of an original edge (each at
// most once) and a feature update.
func writeFixture(tb testing.TB, n, dim, edgesPerNode, batches int) (*graph.Graph, [][]graph.Mutation) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n + edgesPerNode)))
	nodes := make([]graph.Node, n)
	for i := range nodes {
		nodes[i] = graph.Node{ID: int64(i), Feat: make([]float64, dim)}
	}
	edges := make([]graph.Edge, n*edgesPerNode)
	for i := range edges {
		edges[i] = graph.Edge{Src: int64(rng.Intn(n)), Dst: int64(rng.Intn(n)), Weight: 1}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		tb.Fatal(err)
	}
	removable := rng.Perm(g.NumEdges())
	stream := make([][]graph.Mutation, batches)
	for i := range stream {
		e := g.Edges[removable[i]]
		a, b := rng.Intn(n), rng.Intn(n-1)
		stream[i] = []graph.Mutation{
			graph.AddEdge(int64(a), int64((a+1+b)%n), 2),
			graph.AddEdge(int64(b), int64((b+1+a%(n-1))%n), 1),
			graph.RemoveEdge(e.Src, e.Dst),
			graph.UpdateNodeFeat(int64(rng.Intn(n)), make([]float64, dim)),
		}
	}
	return g, stream
}

// TestWritePathAllocsIndependentOfEdgeCount is the write path's cost model
// as an assertion that does not read the clock: what one 4-mutation batch
// allocates through Graph.Apply, LocalFlattener.Rebind and the invalidation
// walk follows the node count (the spine copies) and the neighbourhoods it
// touches, not the edge count — ten times the edges on the same nodes stays
// within 1.5x.
func TestWritePathAllocsIndependentOfEdgeCount(t *testing.T) {
	const n, hops = 20_000, 2
	bytesPerBatch := func(edgesPerNode int) float64 {
		g, stream := writeFixture(t, n, 4, edgesPerNode, 16)
		lf := core.NewLocalFlattener(core.FlatConfig{Hops: hops, MaxNeighbors: 10, Seed: 1}, g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, muts := range stream {
			next, errs := g.Apply(muts)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			lf.Rebind(next, muts)
			if len(invalidated(g, next, muts, hops)) < len(muts) {
				t.Fatal("the walk reached fewer nodes than the batch has seeds")
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(stream))
	}
	small, big := bytesPerBatch(3), bytesPerBatch(30)
	t.Logf("bytes allocated per batch: %.0f at %d edges, %.0f at %d edges", small, 3*n, big, 30*n)
	if big > 1.5*small {
		t.Fatalf("a batch allocates %.0f bytes at %d edges and %.0f at %d: the write path still follows the edge count",
			small, 3*n, big, 30*n)
	}
}
