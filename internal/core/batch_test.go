package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"agl/internal/gnn"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// occurrence lists, in input order, what a batch's inputs say about its
// nodes and in-edges; the reference the builder is checked against keeps
// the first word on each node and each (dst, src) pair.
type occurrence struct {
	nodes []wire.SGNode
	edges []wire.SGEdge
}

// checkBatch holds a built batch to the reference: rows are the distinct
// ids ascending; X, Deg and each row's in-edges come from each id's and each
// pair's first occurrence; each CSR row's sources ascend, so no (row, col)
// repeats.
func checkBatch(t *testing.T, what string, g *gnn.BatchGraph, ids []int64, occ occurrence) {
	t.Helper()
	firstNode := map[int64]wire.SGNode{}
	for _, n := range occ.nodes {
		if _, ok := firstNode[n.ID]; !ok {
			firstNode[n.ID] = n
		}
	}
	firstEdge := map[[2]int64]wire.SGEdge{}
	for _, e := range occ.edges {
		if _, ok := firstEdge[[2]int64{e.Dst, e.Src}]; !ok {
			firstEdge[[2]int64{e.Dst, e.Src}] = e
		}
	}
	if want := slices.Sorted(maps.Keys(firstNode)); !slices.Equal(ids, want) {
		t.Fatalf("%s: rows %v, want the distinct ids ascending %v", what, ids, want)
	}
	dim, anyDeg := 0, false
	for _, n := range firstNode {
		dim, anyDeg = max(dim, len(n.Feat)), anyDeg || n.Deg != 0
	}
	if g.X.Rows != len(ids) || g.X.Cols != dim || (g.Deg != nil) != anyDeg {
		t.Fatalf("%s: X %dx%d, Deg set %v; want %dx%d, %v", what, g.X.Rows, g.X.Cols, g.Deg != nil, len(ids), dim, anyDeg)
	}
	for r, id := range ids {
		n := firstNode[id]
		want := append(slices.Clone(n.Feat), make([]float64, dim-len(n.Feat))...)
		if !slices.Equal(g.X.Row(r), want) {
			t.Fatalf("%s: node %d X %v, want its first occurrence %v", what, id, g.X.Row(r), want)
		}
		if g.Deg != nil && g.Deg[r] != n.Deg {
			t.Fatalf("%s: node %d Deg %v, want its first occurrence %v", what, id, g.Deg[r], n.Deg)
		}
	}
	nnz, feats := 0, 0
	for r, dst := range ids {
		cols, vals := g.Adj.Row(r)
		for k, c := range cols {
			if k > 0 && c <= cols[k-1] {
				t.Fatalf("%s: row %d sources %v do not strictly ascend", what, r, cols)
			}
			e, ok := firstEdge[[2]int64{dst, ids[c]}]
			if !ok || vals[k] != e.Weight {
				t.Fatalf("%s: edge %d -> %d weight %v, want first occurrence %+v (present %v)", what, ids[c], dst, vals[k], e, ok)
			}
			if f, ok := g.EdgeFeat[[2]int{r, c}]; !slices.Equal(f, e.Feat) || ok != (len(e.Feat) > 0) {
				t.Fatalf("%s: edge %d -> %d features %v, want first occurrence %v", what, ids[c], dst, f, e.Feat)
			}
			if len(e.Feat) > 0 {
				feats++
			}
		}
		nnz += len(cols)
	}
	if nnz != len(firstEdge) || len(g.EdgeFeat) != feats {
		t.Fatalf("%s: %d edges and %d edge features, want %d and %d", what, nnz, len(g.EdgeFeat), len(firstEdge), feats)
	}
}

// randomFeat is a nil, short or full-width random vector.
func randomFeat(rng *rand.Rand, dim int) []float64 {
	f := make([]float64, rng.Intn(dim+1))
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	if len(f) == 0 {
		return nil
	}
	return f
}

// randomRecords draws record-shaped input: overlapping subgraphs over a
// shared id pool (ids spread over both signs), node occurrences whose
// features and degrees (zero for some, or for all) disagree between
// records, (dst, src) pairs repeated within and across records with other
// weights and features, and isolated nodes.
func randomRecords(rng *rand.Rand) ([]*wire.TrainRecord, occurrence) {
	pool := make([]int64, 4+rng.Intn(30))
	for i := range pool {
		pool[i] = rng.Int63n(2000) - 1000
	}
	zeroDeg := rng.Intn(4) == 0
	var occ occurrence
	recs := make([]*wire.TrainRecord, 1+rng.Intn(6))
	for i := range recs {
		sg := &wire.Subgraph{Target: pool[rng.Intn(len(pool))]}
		members := []int64{sg.Target}
		for range rng.Intn(12) {
			members = append(members, pool[rng.Intn(len(pool))])
		}
		for _, id := range members {
			n := wire.SGNode{ID: id, Feat: randomFeat(rng, 5)}
			if !zeroDeg && rng.Intn(3) > 0 {
				n.Deg = 1 + rng.Float64()
			}
			sg.Nodes = append(sg.Nodes, n)
		}
		for range rng.Intn(20) {
			e := wire.SGEdge{Src: members[rng.Intn(len(members))], Dst: members[rng.Intn(len(members))], Weight: rng.NormFloat64()}
			if rng.Intn(2) == 0 {
				e.Feat = randomFeat(rng, 3)
			}
			sg.Edges = append(sg.Edges, e)
		}
		recs[i] = &wire.TrainRecord{TargetID: sg.Target, SG: sg}
		occ.nodes = append(occ.nodes, sg.Nodes...)
		occ.edges = append(occ.edges, sg.Edges...)
	}
	return recs, occ
}

// randomBlock draws a GraphInfer-style merge block: distinct nodes, each
// with its encoded embedding and kept in-edges in ascending sender order
// (parallel edges from one sender included), every sender carrying its one
// embedding. recs is the same node set as one record per block node.
func randomBlock(rng *rand.Rand) ([]mergeNode, []*wire.TrainRecord, occurrence) {
	const dim = 4
	embs := map[int64]*wire.Embedding{}
	emb := func(id int64) *wire.Embedding {
		if embs[id] == nil {
			h := make([]float64, dim)
			for i := range h {
				h[i] = rng.NormFloat64()
			}
			embs[id] = &wire.Embedding{ID: id, H: h, Deg: 1 + float64(rng.Intn(5))}
		}
		return embs[id]
	}
	ids := make([]int64, 1+rng.Intn(12))
	for i := range ids {
		ids[i] = int64(i*7) - 20
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var block []mergeNode
	var recs []*wire.TrainRecord
	var occ occurrence
	for _, id := range ids {
		e := emb(id)
		n := mergeNode{id: id, self: wire.EncodeEmbedding(nil, e)}
		sg := &wire.Subgraph{Target: id, Nodes: []wire.SGNode{{ID: id, Feat: e.H, Deg: e.Deg}}}
		for range rng.Intn(6) {
			src := int64(rng.Intn(60)) - 20
			in := &flatMsg{Tag: tagInEdge, Src: src, W: rng.NormFloat64(), State: wire.EncodeEmbedding(nil, emb(src))}
			if rng.Intn(2) == 0 {
				in.EFeat = randomFeat(rng, 3)
			}
			n.kept = append(n.kept, in)
		}
		slices.SortStableFunc(n.kept, func(a, b *flatMsg) int { return int(a.Src - b.Src) })
		for _, in := range n.kept {
			s := emb(in.Src)
			sg.Nodes = append(sg.Nodes, wire.SGNode{ID: in.Src, Feat: s.H, Deg: s.Deg})
			sg.Edges = append(sg.Edges, wire.SGEdge{Src: in.Src, Dst: id, Weight: in.W, Feat: in.EFeat})
		}
		block = append(block, n)
		recs = append(recs, &wire.TrainRecord{TargetID: id, SG: sg})
		occ.nodes = append(occ.nodes, sg.Nodes...)
		occ.edges = append(occ.edges, sg.Edges...)
	}
	return block, recs, occ
}

// TestBuildBatchProperty: the one batch-graph builder, fed record-shaped
// and block-shaped input at random, numbers rows by ascending id, lists
// each row's in-edges by ascending source with no repeated (row, col), and
// keeps each id's and each pair's first occurrence; and one node set built
// through the record entry point (allocating) and the block entry point (a
// recycled workspace) gives BatchGraphs equal in every array.
func TestBuildBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ws := tensor.NewWorkspace()
	rec := func(r *wire.TrainRecord) *wire.Subgraph { return r.SG }
	for trial := range 300 {
		recs, occ := randomRecords(rng)
		g, ids, err := recordBatch(nil, recs, rec)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, "records", g, ids, occ)

		block, blockRecs, occ := randomBlock(rng)
		ws.Reset()
		bg, bids, err := blockBatch(ws, block)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, "block", bg, bids, occ)
		rg, rids, err := recordBatch(nil, blockRecs, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rids, bids) || rg.X.Rows != bg.X.Rows || rg.X.Cols != bg.X.Cols ||
			!slices.Equal(rg.X.Data, bg.X.Data) || !slices.Equal(rg.Deg, bg.Deg) ||
			!slices.Equal(rg.Adj.RowPtr, bg.Adj.RowPtr) || !slices.Equal(rg.Adj.ColIdx, bg.Adj.ColIdx) ||
			!slices.Equal(rg.Adj.Val, bg.Adj.Val) || !maps.EqualFunc(rg.EdgeFeat, bg.EdgeFeat, slices.Equal) {
			t.Fatalf("trial %d: the record and block entry points built different batches from one node set", trial)
		}
	}
}
