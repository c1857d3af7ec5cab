package core

import (
	"fmt"

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

// AssembleBatchWS is AssembleBatch with the batch feature matrix X drawn
// from a per-step workspace (nil allocates). Supervision (LabelVecs) stays
// heap-allocated: callers like Predict keep it past the workspace reset.
func AssembleBatchWS(ws *tensor.Workspace, recs []*wire.TrainRecord, numClasses int, multiLabel bool) (*Batch, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	sgs := make([]*wire.Subgraph, len(recs))
	for i, rec := range recs {
		sgs[i] = rec.SG
	}
	m, err := mergeSubgraphs(ws, sgs)
	if err != nil {
		return nil, err
	}
	b := &Batch{NodeIDs: m.nodeIDs}
	if multiLabel || len(recs[0].LabelVec) > 0 {
		cols := numClasses
		if len(recs[0].LabelVec) > 0 {
			cols = len(recs[0].LabelVec)
		}
		b.LabelVecs = tensor.New(len(recs), cols)
	}
	var targets []int
	for bi, rec := range recs {
		ti, ok := m.row[rec.TargetID]
		if !ok {
			return nil, fmt.Errorf("core: target %d missing from its own subgraph", rec.TargetID)
		}
		targets = append(targets, ti)
		b.TargetIDs = append(b.TargetIDs, rec.TargetID)
		b.Labels = append(b.Labels, int(rec.Label))
		if b.LabelVecs != nil {
			copy(b.LabelVecs.Row(bi), rec.LabelVec)
		}
	}
	b.Graph = m.graph(targets)
	return b, nil
}

// merged is the union of a batch's subgraphs in vectorized form, plus the
// id maps its callers resolve targets and pairs against.
type merged struct {
	g *gnn.BatchGraph
	// nodeIDs maps batch row -> original node id; row is its inverse.
	nodeIDs []int64
	row     map[int64]int
	// edges holds the (src, dst) ids of every batch edge.
	edges map[[2]int64]bool
}

// mergeSubgraphs is the one subgraph-vectorization routine: it merges the
// (overlapping) k-hop neighborhoods of a batch, deduplicating nodes and
// edges by id, into the adjacency (COO -> CSR, row = destination), the
// node feature matrix X (drawn from ws; nil allocates), the edge features
// and the normalization degrees.
func mergeSubgraphs(ws *tensor.Workspace, sgs []*wire.Subgraph) (*merged, error) {
	m := &merged{row: make(map[int64]int), edges: make(map[[2]int64]bool)}
	var feats [][]float64
	var degs []float64
	anyDeg := false
	featDim := 0
	for _, sg := range sgs {
		for _, n := range sg.Nodes {
			if _, ok := m.row[n.ID]; ok {
				continue
			}
			m.row[n.ID] = len(m.nodeIDs)
			m.nodeIDs = append(m.nodeIDs, n.ID)
			feats = append(feats, n.Feat)
			featDim = max(featDim, len(n.Feat))
			degs = append(degs, n.Deg)
			if n.Deg > 0 {
				anyDeg = true
			}
		}
	}
	var coos []sparse.Coo
	var edgeFeat map[[2]int][]float64
	for _, sg := range sgs {
		for _, e := range sg.Edges {
			k := [2]int64{e.Src, e.Dst}
			if m.edges[k] {
				continue
			}
			m.edges[k] = true
			si, ok1 := m.row[e.Src]
			di, ok2 := m.row[e.Dst]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("core: edge (%d,%d) references node outside subgraphs", e.Src, e.Dst)
			}
			coos = append(coos, sparse.Coo{Row: di, Col: si, Val: e.Weight})
			if len(e.Feat) > 0 {
				if edgeFeat == nil {
					edgeFeat = make(map[[2]int][]float64)
				}
				edgeFeat[[2]int{di, si}] = e.Feat
			}
		}
	}
	x := ws.Get(len(m.nodeIDs), featDim)
	for i, f := range feats {
		copy(x.Row(i), f)
	}
	m.g = &gnn.BatchGraph{Adj: sparse.NewCSR(len(m.nodeIDs), len(m.nodeIDs), coos), X: x, EdgeFeat: edgeFeat}
	if anyDeg {
		m.g.Deg = degs
	}
	return m, nil
}

// graph completes the batch graph with its target rows (the rows whose
// embeddings must survive all K layers) and every row's distance to them.
func (m *merged) graph(targets []int) *gnn.BatchGraph {
	m.g.Targets = targets
	m.g.Dist = gnn.ComputeDistances(m.g.Adj, targets)
	return m.g
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
