package core

import (
	"errors"
	"fmt"
	"slices"

	"agl/internal/graph"
	"agl/internal/wire"
)

// ErrNodeNotFound marks a request for a node id absent from the graph;
// callers can distinguish it (errors.Is) from internal failures.
var ErrNodeNotFound = errors.New("node not in graph")

// LocalFlattener materializes the k-hop GraphFeature of a single node
// directly from an in-memory graph — the online counterpart of the batch
// Flatten pipeline. The serving tier (internal/serve) uses it for "cold"
// nodes whose embedding is not in the offline store: a request-time BFS
// along in-edges replaces the K MapReduce merge rounds, producing a
// TrainRecord a forward pass can consume.
//
// The extracted subgraph contains exactly the nodes and edges GraphFlat
// materializes for the same target: every node on a directed path of length
// ≤ Hops into the target, and every in-edge of nodes within Hops−1, in the
// sampled graph. Each node's in-edges are sampled once per graph version,
// by the same keepInEdges decision the offline pipelines make, so
// for equal MaxNeighbors, Strategy and Seed a cold extraction, the Flatten
// record and the graph GraphInfer passes messages over coincide, whatever
// HubThreshold the offline runs used.
type LocalFlattener struct {
	cfg FlatConfig
	g   *graph.Graph
	// ins[i] is the sampling decision over g.InRow(i): node i's kept
	// in-edges, in canonical order. deg[i] is the node's normalization degree
	// (weighted in-degree of the unsampled row + 1; an isolated node
	// normalizes by 1), matching WeightedInDegrees.
	ins [][]graph.InEdge
	deg []float64
}

// NewLocalFlattener draws every node's sampling decision from g's in-rows.
func NewLocalFlattener(cfg FlatConfig, g *graph.Graph) *LocalFlattener {
	n := g.NumNodes()
	lf := &LocalFlattener{cfg: cfg.withDefaults(), g: g, ins: make([][]graph.InEdge, n), deg: make([]float64, n)}
	for i := range n {
		lf.sample(i)
	}
	return lf
}

// sample (re)draws node i's row from the graph's in-row: the normalization
// degree, then the one sampling decision per node.
func (lf *LocalFlattener) sample(i int) {
	// keepInEdges reorders in place and the graph's row is shared: copy.
	row := slices.Clone(lf.g.InRow(i))
	deg := 1.0
	for _, in := range row {
		deg += in.Weight
	}
	srcKey := func(in graph.InEdge) (int64, float64) { return lf.g.Nodes[in.Src].ID, in.Weight }
	lf.ins[i] = keepInEdges(lf.cfg.Strategy, lf.cfg.Seed, lf.g.Nodes[i].ID, lf.cfg.MaxNeighbors, row, srcKey)
	lf.deg[i] = deg
}

// Graph returns the graph version this flattener extracts from.
func (lf *LocalFlattener) Graph() *graph.Graph { return lf.g }

// Hops returns the neighborhood radius K the flattener extracts.
func (lf *LocalFlattener) Hops() int { return lf.cfg.Hops }

// Rebind returns a flattener over next, the graph produced by applying
// muts to lf's graph (see graph.Graph.Apply). The sampled rows are
// copy-on-write: a row is re-drawn, from next's in-row and exactly as
// NewLocalFlattener would, only for a node the batch added or whose in-edge
// set it touched; every other row is shared with lf. A batch costs one
// memcpy of the N row headers and degrees plus the rows it touched, never a
// pass over the edges, and a rebound flattener's extractions are
// indistinguishable from a freshly constructed flattener's.
//
// lf itself is never modified: extractions in flight on the old version
// keep their consistent view.
func (lf *LocalFlattener) Rebind(next *graph.Graph, muts []graph.Mutation) *LocalFlattener {
	n, old := next.NumNodes(), len(lf.deg)
	out := &LocalFlattener{cfg: lf.cfg, g: next, ins: make([][]graph.InEdge, n), deg: make([]float64, n)}
	copy(out.ins, lf.ins)
	copy(out.deg, lf.deg)
	for i := old; i < n; i++ {
		out.sample(i)
	}
	for _, m := range muts {
		if m.Op == graph.OpAddEdge || m.Op == graph.OpRemoveEdge {
			if di, ok := next.Index(m.Dst); ok {
				out.sample(di)
			}
		}
	}
	return out
}

// GraphFeature extracts the target's k-hop neighborhood as a TrainRecord
// (Label −1: inference has no supervision). It errors on unknown node ids.
func (lf *LocalFlattener) GraphFeature(id int64) (*wire.TrainRecord, error) {
	ti, ok := lf.g.Index(id)
	if !ok {
		return nil, fmt.Errorf("core: node %d: %w", id, ErrNodeNotFound)
	}
	sg := &wire.Subgraph{Target: id}
	added := map[int]bool{ti: true}
	sg.Nodes = append(sg.Nodes, lf.sgNode(ti))

	frontier := []int{ti}
	for depth := 1; depth <= lf.cfg.Hops && len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, in := range lf.ins[v] {
				sg.Edges = append(sg.Edges, wire.SGEdge{
					Src:    lf.g.Nodes[in.Src].ID,
					Dst:    lf.g.Nodes[v].ID,
					Weight: in.Weight,
					Feat:   in.Feat,
				})
				if src := int(in.Src); !added[src] {
					added[src] = true
					sg.Nodes = append(sg.Nodes, lf.sgNode(src))
					next = append(next, src)
				}
			}
		}
		frontier = next
	}
	return &wire.TrainRecord{TargetID: id, Label: -1, SG: sg}, nil
}

func (lf *LocalFlattener) sgNode(i int) wire.SGNode {
	n := lf.g.Nodes[i]
	return wire.SGNode{ID: n.ID, Feat: n.Feat, Deg: lf.deg[i]}
}
