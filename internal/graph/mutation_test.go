package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	nodes := make([]Node, n)
	var edges []Edge
	for i := range nodes {
		nodes[i] = Node{ID: int64(i), Feat: []float64{float64(i), 1}}
		if i > 0 {
			edges = append(edges, Edge{Src: int64(i - 1), Dst: int64(i), Weight: 1})
		}
	}
	g, err := Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyBasicOps(t *testing.T) {
	g := lineGraph(t, 4)
	next, errs := g.Apply([]Mutation{
		AddNode(10, []float64{5, 5}),
		AddEdge(10, 0, 2),
		AddEdge(0, 1, 3), // duplicate of existing 0->1: weights merge
		RemoveEdge(1, 2),
		UpdateNodeFeat(3, []float64{9, 9}),
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if next.NumNodes() != 5 || next.NumEdges() != 3 {
		t.Fatalf("got %d nodes / %d edges, want 5/3", next.NumNodes(), next.NumEdges())
	}
	if n, ok := next.Node(3); !ok || n.Feat[0] != 9 {
		t.Fatalf("node 3 feat not updated: %+v", n)
	}
	var w01 float64
	for _, e := range next.EdgeTable() {
		if e.Src == 0 && e.Dst == 1 {
			w01 = e.Weight
		}
		if e.Src == 1 && e.Dst == 2 {
			t.Fatal("removed edge 1->2 still present")
		}
	}
	if w01 != 4 {
		t.Fatalf("duplicate add_edge should merge weights: got %v, want 4", w01)
	}
	// Dense indices of pre-existing nodes must be stable.
	for id := int64(0); id < 4; id++ {
		oi, _ := g.Index(id)
		ni, _ := next.Index(id)
		if oi != ni {
			t.Fatalf("node %d moved from dense index %d to %d", id, oi, ni)
		}
	}
}

func TestApplyCopyOnWriteIsolation(t *testing.T) {
	g := lineGraph(t, 4)
	wantNodes := append([]Node(nil), g.Nodes...)
	wantFeat := append([]float64(nil), g.Nodes[2].Feat...)
	wantEdges := append([]Edge(nil), g.Edges...)

	_, errs := g.Apply([]Mutation{
		UpdateNodeFeat(2, []float64{-1, -1}),
		RemoveEdge(0, 1),
		AddEdge(3, 0, 1),
		AddNode(99, []float64{0, 0}),
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(g.Edges, wantEdges) {
		t.Fatal("Apply mutated the receiver's edges")
	}
	if len(g.Nodes) != len(wantNodes) {
		t.Fatal("Apply mutated the receiver's node count")
	}
	if !reflect.DeepEqual(g.Nodes[2].Feat, wantFeat) {
		t.Fatal("Apply mutated a feature vector in place")
	}
	if _, ok := g.Index(99); ok {
		t.Fatal("Apply leaked a new node into the receiver's index")
	}
}

func TestApplyPartialFailure(t *testing.T) {
	g := lineGraph(t, 3)
	next, errs := g.Apply([]Mutation{
		AddEdge(0, 2, 1),                   // ok
		AddEdge(0, 777, 1),                 // unknown dst
		AddEdge(1, 1, 1),                   // self loop
		RemoveEdge(2, 0),                   // no such edge
		UpdateNodeFeat(555, []float64{1}),  // unknown node
		AddNode(0, []float64{1, 1}),        // duplicate id
		AddNode(5, []float64{1}),           // dim mismatch (graph is dim 2)
		UpdateNodeFeat(1, []float64{7, 7}), // ok
	})
	wantErr := []error{nil, ErrUnknownNode, ErrBadMutation, ErrUnknownEdge,
		ErrUnknownNode, ErrDuplicateNode, ErrBadMutation, nil}
	for i, want := range wantErr {
		if want == nil {
			if errs[i] != nil {
				t.Fatalf("mutation %d: unexpected error %v", i, errs[i])
			}
			continue
		}
		if !errors.Is(errs[i], want) {
			t.Fatalf("mutation %d: got %v, want %v", i, errs[i], want)
		}
	}
	if next.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("valid mutations did not apply: %d edges", next.NumEdges())
	}
	if n, _ := next.Node(1); n.Feat[0] != 7 {
		t.Fatal("valid update_feat after failures did not apply")
	}
}

func TestApplyAddNodeThenEdgeSameBatch(t *testing.T) {
	g := lineGraph(t, 2)
	next, errs := g.Apply([]Mutation{
		AddNode(7, []float64{1, 2}),
		AddEdge(7, 0, 1),
		AddEdge(0, 7, 1),
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if next.NumNodes() != 3 || next.NumEdges() != 3 {
		t.Fatalf("got %d/%d, want 3 nodes 3 edges", next.NumNodes(), next.NumEdges())
	}
}

func TestApplyRemoveThenReAddSameBatch(t *testing.T) {
	g := lineGraph(t, 3)
	next, errs := g.Apply([]Mutation{
		RemoveEdge(0, 1),
		AddEdge(0, 1, 5), // fresh weight, not merged with the removed edge
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	for _, e := range next.EdgeTable() {
		if e.Src == 0 && e.Dst == 1 && e.Weight != 5 {
			t.Fatalf("re-added edge weight %v, want 5", e.Weight)
		}
	}
	if next.NumEdges() != 2 {
		t.Fatalf("edge count %d, want 2", next.NumEdges())
	}
}

func TestApplyNothingAppliedReturnsReceiver(t *testing.T) {
	g := lineGraph(t, 3)
	next, errs := g.Apply([]Mutation{RemoveEdge(2, 0)})
	if next != g {
		t.Fatal("all-failed batch should return the receiver unchanged")
	}
	if errs[0] == nil {
		t.Fatal("expected an error for the failed mutation")
	}
	next, _ = g.Apply(nil)
	if next != g {
		t.Fatal("empty batch should return the receiver unchanged")
	}
}

// edgeSet canonicalizes a graph's edges for equivalence comparison.
func edgeSet(g *Graph) map[[2]int64]float64 {
	out := make(map[[2]int64]float64, g.NumEdges())
	for _, e := range g.EdgeTable() {
		out[[2]int64{e.Src, e.Dst}] = e.Weight
	}
	return out
}

// TestApplyEquivalentToRebuild is the mutation-layer property test: after
// any random mutation sequence, the incrementally mutated graph must equal
// a graph rebuilt from scratch with Build over the surviving node/edge
// set — same nodes, same features, same merged edge weights.
func TestApplyEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(30)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{ID: int64(i), Feat: []float64{rng.NormFloat64(), rng.NormFloat64()}}
		}
		var edges []Edge
		for i := 0; i < 3*n; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d {
				continue
			}
			edges = append(edges, Edge{Src: int64(s), Dst: int64(d), Weight: 1 + rng.Float64()})
		}
		g, err := Build(nodes, edges)
		if err != nil {
			t.Fatal(err)
		}

		// Shadow state for the from-scratch rebuild.
		shadowNodes := map[int64][]float64{}
		for _, nd := range g.Nodes {
			shadowNodes[nd.ID] = nd.Feat
		}
		shadowEdges := edgeSet(g)

		cur := g
		nextID := int64(n)
		for batch := 0; batch < 8; batch++ {
			var muts []Mutation
			for k := 0; k < 1+rng.Intn(6); k++ {
				switch rng.Intn(4) {
				case 0:
					muts = append(muts, AddNode(nextID, []float64{rng.NormFloat64(), rng.NormFloat64()}))
					nextID++
				case 1:
					s := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					d := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					muts = append(muts, AddEdge(s, d, 1+rng.Float64()))
				case 2:
					if cur.NumEdges() > 0 {
						e := cur.EdgeTable()[rng.Intn(cur.NumEdges())]
						muts = append(muts, RemoveEdge(e.Src, e.Dst))
					}
				case 3:
					id := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					muts = append(muts, UpdateNodeFeat(id, []float64{rng.NormFloat64(), rng.NormFloat64()}))
				}
			}
			next, errs := cur.Apply(muts)
			// Replay applied mutations onto the shadow state.
			for i, m := range muts {
				if errs[i] != nil {
					continue
				}
				switch m.Op {
				case OpAddNode, OpUpdateNodeFeat:
					shadowNodes[m.ID] = m.Feat
				case OpAddEdge:
					w := m.Weight
					if w == 0 {
						w = 1
					}
					shadowEdges[[2]int64{m.Src, m.Dst}] += w
				case OpRemoveEdge:
					delete(shadowEdges, [2]int64{m.Src, m.Dst})
				}
			}
			cur = next
		}

		// Rebuild from the shadow state and compare.
		var rbNodes []Node
		var ids []int64
		for id := range shadowNodes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			rbNodes = append(rbNodes, Node{ID: id, Feat: shadowNodes[id]})
		}
		var rbEdges []Edge
		for k, w := range shadowEdges {
			rbEdges = append(rbEdges, Edge{Src: k[0], Dst: k[1], Weight: w})
		}
		rebuilt, err := Build(rbNodes, rbEdges)
		if err != nil {
			t.Fatal(err)
		}
		if cur.NumNodes() != rebuilt.NumNodes() {
			t.Fatalf("trial %d: %d nodes, rebuild has %d", trial, cur.NumNodes(), rebuilt.NumNodes())
		}
		for _, nd := range rebuilt.Nodes {
			got, ok := cur.Node(nd.ID)
			if !ok || !reflect.DeepEqual(got.Feat, nd.Feat) {
				t.Fatalf("trial %d: node %d: got %+v want %+v", trial, nd.ID, got, nd)
			}
		}
		gotEdges, wantEdges := edgeSet(cur), edgeSet(rebuilt)
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("trial %d: %d edges, rebuild has %d", trial, len(gotEdges), len(wantEdges))
		}
		for k, w := range wantEdges {
			if got := gotEdges[k]; got < w-1e-9 || got > w+1e-9 {
				t.Fatalf("trial %d: edge %v weight %v, rebuild has %v", trial, k, got, w)
			}
		}
	}
}

func TestMutationJSONRoundTrip(t *testing.T) {
	muts := []Mutation{
		AddNode(3, []float64{1, 2}),
		AddEdge(1, 2, 2.5),
		RemoveEdge(1, 2),
		UpdateNodeFeat(3, []float64{4}),
	}
	b, err := json.Marshal(muts)
	if err != nil {
		t.Fatal(err)
	}
	var back []Mutation
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(muts, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", muts, back)
	}
	if _, err := ParseMutOp("drop_table"); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("unknown op parse: %v", err)
	}
	var m Mutation
	if err := json.Unmarshal([]byte(`{"op":"nope"}`), &m); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestVersionedApplyAndLog(t *testing.T) {
	g := lineGraph(t, 4)
	v := NewVersionedCap(g, 2)
	if _, ver := v.Snapshot(); ver != 0 {
		t.Fatalf("fresh version %d, want 0", ver)
	}

	_, v1, errs := v.Apply([]Mutation{AddEdge(0, 2, 1)})
	if v1 != 1 || errs[0] != nil {
		t.Fatalf("apply 1: version %d errs %v", v1, errs)
	}
	// All-failed batch: version unchanged.
	_, vSame, errs := v.Apply([]Mutation{RemoveEdge(3, 0)})
	if vSame != 1 || errs[0] == nil {
		t.Fatalf("failed batch bumped version to %d", vSame)
	}
	_, v2, _ := v.Apply([]Mutation{AddEdge(1, 3, 1)})
	_, v3, _ := v.Apply([]Mutation{RemoveEdge(0, 2)})
	if v2 != 2 || v3 != 3 {
		t.Fatalf("versions %d/%d, want 2/3", v2, v3)
	}

	// Log capacity 2: batches 2 and 3 retained, 1 trimmed.
	if entries, ok := v.Since(1); !ok || len(entries) != 2 ||
		entries[0].Version != 2 || entries[1].Version != 3 {
		t.Fatalf("Since(1) = %+v ok=%v", entries, ok)
	}
	if _, ok := v.Since(0); ok {
		t.Fatal("Since(0) should report the log trimmed")
	}
	if entries, ok := v.Since(3); !ok || len(entries) != 0 {
		t.Fatalf("Since(current) = %+v ok=%v", entries, ok)
	}

	// The window slides: over many more batches than the capacity (the
	// log's array is re-allocated several times on the way) Since keeps
	// answering with exactly the newest two and reports anything older
	// trimmed.
	for i := 0; i < 50; i++ {
		m := []Mutation{AddEdge(0, 3, 1)}
		if i%2 == 1 {
			m = []Mutation{RemoveEdge(0, 3)}
		}
		_, ver, errs := v.Apply(m)
		if want := uint64(4 + i); ver != want || errs[0] != nil {
			t.Fatalf("apply %d: version %d errs %v, want version %d", i, ver, errs, want)
		}
		entries, ok := v.Since(ver - 2)
		if !ok || len(entries) != 2 || entries[0].Version != ver-1 || entries[1].Version != ver ||
			!reflect.DeepEqual(entries[1].Muts, m) {
			t.Fatalf("after %d batches Since(%d) = %+v ok=%v", ver, ver-2, entries, ok)
		}
		if _, ok := v.Since(ver - 3); ok {
			t.Fatalf("after %d batches Since(%d) should report the log trimmed", ver, ver-3)
		}
	}

	cur, ver := v.Snapshot()
	if ver != 53 {
		t.Fatalf("version %d, want 53", ver)
	}
	if _, found := findEdge(cur, 0, 2); found {
		t.Fatal("removed edge visible in snapshot")
	}
	if _, found := findEdge(cur, 1, 3); !found {
		t.Fatal("added edge missing from snapshot")
	}
}

// TestApplyCopiesMutationPayloads: a caller that reuses its batch after
// Apply returns must not rewrite the snapshot or the mutation log.
func TestApplyCopiesMutationPayloads(t *testing.T) {
	v := NewVersioned(lineGraph(t, 4))
	batch := func() []Mutation {
		return []Mutation{
			{Op: OpAddEdge, Src: 0, Dst: 2, Weight: 1, Feat: []float64{7, 8}},
			UpdateNodeFeat(1, []float64{3, 4}),
			AddNode(9, []float64{5, 6}),
		}
	}
	muts := batch()
	next, _, errs := v.Apply(muts)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	for i := range muts {
		muts[i].Feat[0], muts[i].Feat[1] = -1, -1
		muts[i].Src, muts[i].ID = 3, 3
	}
	if e, ok := findEdge(next, 0, 2); !ok || !reflect.DeepEqual(e.Feat, []float64{7, 8}) {
		t.Fatalf("edge features follow the caller's slice: %+v", e)
	}
	if n, _ := next.Node(1); !reflect.DeepEqual(n.Feat, []float64{3, 4}) {
		t.Fatalf("node features follow the caller's slice: %+v", n)
	}
	entries, ok := v.Since(0)
	if !ok || len(entries) != 1 || !reflect.DeepEqual(entries[0].Muts, batch()) {
		t.Fatalf("the log follows the caller's slice: %+v", entries)
	}
}

func TestVersionedConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	g := lineGraph(t, 8)
	v := NewVersioned(g)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			id := int64(i % 8)
			peer := int64((i + 3) % 8)
			if id == peer {
				continue
			}
			v.Apply([]Mutation{AddEdge(id, peer, 1), RemoveEdge(id, peer)})
		}
	}()
	for i := 0; i < 500; i++ {
		snap, _ := v.Snapshot()
		// A consistent snapshot's CSR must reference only in-range indices;
		// building it exercises every edge against the node index.
		if csr := snap.CSR(); csr.NumRows != snap.NumNodes() {
			t.Fatalf("snapshot CSR rows %d, nodes %d", csr.NumRows, snap.NumNodes())
		}
	}
	<-done
}

func findEdge(g *Graph, src, dst int64) (Edge, bool) {
	for _, e := range g.EdgeTable() {
		if e.Src == src && e.Dst == dst {
			return e, true
		}
	}
	return Edge{}, false
}

func TestApplyFirstNodeSetsFeatureDim(t *testing.T) {
	g, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, errs := g.Apply([]Mutation{
		AddNode(1, []float64{1, 2, 3}),
		AddNode(2, []float64{4, 5}), // dim mismatch with the batch's first node
	})
	if errs[0] != nil {
		t.Fatalf("first node rejected: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrBadMutation) {
		t.Fatalf("dim mismatch accepted: %v", errs[1])
	}
	if next.FeatureDim() != 3 {
		t.Fatalf("feature dim %d, want 3", next.FeatureDim())
	}
}

// BenchmarkGraphApply is the write path's first rung: one 4-mutation batch
// (the benchmark's batch size) on graphs of mean in-degree 5. The cost must
// follow N only through the spine copies, and E not at all.
func BenchmarkGraphApply(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = Node{ID: int64(i), Feat: make([]float64, 32)}
			}
			edges := make([]Edge, 5*n)
			for i := range edges {
				edges[i] = Edge{Src: int64(rng.Intn(n)), Dst: int64(rng.Intn(n)), Weight: 1}
			}
			g, err := Build(nodes, edges)
			if err != nil {
				b.Fatal(err)
			}
			batches := make([][]Mutation, 64)
			for i := range batches {
				e := g.Edges[rng.Intn(len(g.Edges))]
				batches[i] = []Mutation{
					AddEdge(int64(rng.Intn(n)), int64(n-1-rng.Intn(n/2)), 1),
					AddEdge(e.Src, e.Dst, 2),
					RemoveEdge(e.Src, e.Dst),
					UpdateNodeFeat(int64(rng.Intn(n)), make([]float64, 32)),
				}
			}
			g.InRow(0) // the one-time row build is set-up, not write path
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next, _ := g.Apply(batches[i%len(batches)]); next == g {
					b.Fatal("nothing applied")
				}
			}
		})
	}
}
