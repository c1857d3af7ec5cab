package core

import (
	"fmt"
	"slices"

	"agl/internal/gnn"
	"agl/internal/sparse"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// Batch is a vectorized batch of training examples: the merged subgraph of
// every target's GraphFeature expressed as the three matrices of paper
// §3.3.1 (adjacency, node features, edge weights), plus supervision.
type Batch struct {
	Graph     *gnn.BatchGraph
	TargetIDs []int64
	// Labels holds per-target class labels for cross-entropy training.
	Labels []int
	// LabelVecs holds per-target 0/1 vectors for BCE (multi-label or
	// binary) training; nil when unused.
	LabelVecs *tensor.Matrix
	// NodeIDs maps batch row -> original node id.
	NodeIDs []int64
}

// AssembleBatch merges decoded TrainRecords into a single Batch — the
// "subgraph vectorization" phase of GraphTrainer. Subgraphs of different
// targets overlap; nodes and edges are deduplicated by id.
func AssembleBatch(recs []*wire.TrainRecord, numClasses int, multiLabel bool) (*Batch, error) {
	return AssembleBatchWS(nil, recs, numClasses, multiLabel)
}

// AssembleBatchWS is AssembleBatch with the batch graph's X, Deg, adjacency
// and edge features drawn from a per-step workspace (nil allocates).
// Supervision (LabelVecs) and NodeIDs stay heap-allocated: callers like
// Predict keep them past the workspace reset.
func AssembleBatchWS(ws *tensor.Workspace, recs []*wire.TrainRecord, numClasses int, multiLabel bool) (*Batch, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	g, ids, err := recordBatch(ws, recs, func(r *wire.TrainRecord) *wire.Subgraph { return r.SG })
	if err != nil {
		return nil, err
	}
	b := &Batch{Graph: g, NodeIDs: ids}
	if multiLabel || len(recs[0].LabelVec) > 0 {
		cols := numClasses
		if len(recs[0].LabelVec) > 0 {
			cols = len(recs[0].LabelVec)
		}
		b.LabelVecs = tensor.New(len(recs), cols)
	}
	for bi, rec := range recs {
		ti, ok := slices.BinarySearch(ids, rec.TargetID)
		if !ok {
			return nil, fmt.Errorf("core: target %d missing from its own subgraph", rec.TargetID)
		}
		g.Targets = append(g.Targets, ti)
		b.TargetIDs = append(b.TargetIDs, rec.TargetID)
		b.Labels = append(b.Labels, int(rec.Label))
		if b.LabelVecs != nil {
			copy(b.LabelVecs.Row(bi), rec.LabelVec)
		}
	}
	g.Dist = gnn.ComputeDistances(g.Adj, g.Targets)
	return b, nil
}

// recordBatch vectorizes a batch of records' subgraphs through buildBatch.
func recordBatch[R any](ws *tensor.Workspace, recs []R, sg func(R) *wire.Subgraph) (*gnn.BatchGraph, []int64, error) {
	nn, ne := 0, 0
	for _, rec := range recs {
		nn, ne = nn+len(sg(rec).Nodes), ne+len(sg(rec).Edges)
	}
	nodes, edges := make([]batchNode, 0, nn), make([]batchEdge, 0, ne)
	for _, rec := range recs {
		for _, n := range sg(rec).Nodes {
			nodes = append(nodes, batchNode{id: n.ID, feat: n.Feat, deg: n.Deg})
		}
		for _, e := range sg(rec).Edges {
			edges = append(edges, batchEdge{dst: e.Dst, src: e.Src, w: e.Weight, feat: e.Feat})
		}
	}
	return buildBatch(ws, nodes, edges)
}

// blockBatch vectorizes a GraphInfer merge block through buildBatch: the
// block's nodes and the senders of their kept in-edges, each with its
// encoded (k−1)-layer embedding.
func blockBatch(ws *tensor.Workspace, block []mergeNode) (*gnn.BatchGraph, []int64, error) {
	nnz := 0
	for _, n := range block {
		nnz += len(n.kept)
	}
	nodes, edges := make([]batchNode, 0, len(block)+nnz), make([]batchEdge, 0, nnz)
	for _, n := range block {
		nodes = append(nodes, batchNode{id: n.id, enc: n.self})
		for _, in := range n.kept {
			nodes = append(nodes, batchNode{id: in.Src, enc: in.State})
			edges = append(edges, batchEdge{dst: n.id, src: in.Src, w: in.W, feat: in.EFeat})
		}
	}
	return buildBatch(ws, nodes, edges)
}

// batchNode is one occurrence of a node offered to buildBatch: its id and
// its feature (or embedding) row and normalization degree, or enc, the
// encoded wire.Embedding to decode them from.
type batchNode struct {
	id   int64
	feat []float64
	deg  float64
	enc  []byte
}

// batchEdge is one in-edge src → dst offered to buildBatch.
type batchEdge struct {
	dst, src int64
	w        float64
	feat     []float64
}

// buildBatch is the one batch-graph builder: training, link and GraphInfer
// batches and the serving cold path all vectorize through it. nodes and
// edges come in any order and may repeat an id or a (dst, src) pair; only
// the first occurrence of each is read (and an enc decoded). Rows are the
// distinct ids, ascending (returned), each with its X row (zero-padded),
// its Deg (nil when every degree is zero) and its in-edges as a CSR row
// (row = destination) in ascending source row, so a row sums its terms in
// one order in any batch or block. X, Deg, adjacency and edge features
// are drawn from ws (nil allocates).
func buildBatch(ws *tensor.Workspace, nodes []batchNode, edges []batchEdge) (*gnn.BatchGraph, []int64, error) {
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.id
	}
	slices.Sort(ids)
	ids = slices.Clip(slices.Compact(ids))
	rows := len(ids)
	first := ws.Ints(rows) // 1 + the index of each row's first occurrence
	dim, anyDeg := 0, false
	for i := range nodes {
		n := &nodes[i]
		if r, _ := slices.BinarySearch(ids, n.id); first[r] == 0 {
			if n.enc != nil {
				e, err := wire.DecodeEmbedding(wire.NewReader(n.enc))
				if err != nil {
					return nil, nil, err
				}
				n.feat, n.deg = e.H, e.Deg
			}
			first[r] = i + 1
			dim, anyDeg = max(dim, len(n.feat)), anyDeg || n.deg != 0
		}
	}
	g := &gnn.BatchGraph{X: ws.GetUninit(rows, dim), Deg: ws.Floats(rows)}
	for r, i := range first {
		x := g.X.Row(r)
		clear(x[copy(x, nodes[i-1].feat):])
		g.Deg[r] = nodes[i-1].deg
	}
	if !anyDeg {
		g.Deg = nil
	}

	// A counting sort places the edges by destination row in input order;
	// a stable sort of each row by source row then puts a repeated (dst,
	// src) pair right behind its first occurrence, which is kept.
	adj := &sparse.CSR{NumRows: rows, NumCols: rows,
		RowPtr: ws.Ints(rows + 1), ColIdx: ws.Ints(len(edges)), Val: ws.Floats(len(edges))}
	src, dst, slot := ws.Ints(len(edges)), ws.Ints(len(edges)), ws.Ints(len(edges))
	featLen := 0
	for i, e := range edges {
		s, ok1 := slices.BinarySearch(ids, e.src)
		d, ok2 := slices.BinarySearch(ids, e.dst)
		if !ok1 || !ok2 {
			return nil, nil, fmt.Errorf("core: edge (%d,%d) references a node outside the batch", e.src, e.dst)
		}
		src[i], dst[i] = s, d
		adj.RowPtr[d+1]++
		featLen += len(e.feat)
	}
	for r := range rows {
		adj.RowPtr[r+1] += adj.RowPtr[r]
	}
	next := slices.Clone(adj.RowPtr[:rows])
	for i, d := range dst {
		slot[next[d]] = i
		next[d]++
	}
	var feats []float64
	if featLen > 0 {
		g.EdgeFeat, feats = make(map[[2]int][]float64), ws.Floats(featLen)
	}
	bySrc := func(a, b int) int { return src[a] - src[b] }
	at, lo := 0, 0
	for r := range rows {
		hi := adj.RowPtr[r+1]
		if row := slot[lo:hi]; !slices.IsSortedFunc(row, bySrc) {
			slices.SortStableFunc(row, bySrc)
		}
		for _, i := range slot[lo:hi] {
			if at > adj.RowPtr[r] && adj.ColIdx[at-1] == src[i] {
				continue
			}
			adj.ColIdx[at], adj.Val[at] = src[i], edges[i].w
			if f := edges[i].feat; len(f) > 0 {
				g.EdgeFeat[[2]int{r, src[i]}] = feats[:len(f):len(f)]
				feats = feats[copy(feats, f):]
			}
			at++
		}
		adj.RowPtr[r+1], lo = at, hi
	}
	adj.ColIdx, adj.Val, g.Adj = adj.ColIdx[:at], adj.Val[:at], adj
	return g, ids, nil
}

// DecodeRecords parses a slice of encoded TrainRecords.
func DecodeRecords(encoded [][]byte) ([]*wire.TrainRecord, error) {
	return decodeAll(encoded, "record", wire.DecodeTrainRecord)
}

func decodeAll[R any](encoded [][]byte, what string, decode func([]byte) (R, error)) ([]R, error) {
	out := make([]R, 0, len(encoded))
	for i, e := range encoded {
		rec, err := decode(e)
		if err != nil {
			return nil, fmt.Errorf("core: %s %d: %w", what, i, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
