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
// sampled graph. Each node's in-edges are sampled once, when its row is
// indexed, by the same keepInEdges decision the offline pipelines make, so
// for equal MaxNeighbors, Strategy and Seed a cold extraction, the Flatten
// record and the graph GraphInfer passes messages over coincide. The
// guarantee holds for HubThreshold == 0: the flattener sees a node's whole
// in-edge list and does not reproduce re-indexing's per-shard pre-sample.
type LocalFlattener struct {
	cfg FlatConfig
	g   *graph.Graph
	// ins[i] lists node i's kept in-edges (by dense index, in canonical
	// order); deg[i] is the node's normalization degree (weighted in-degree
	// of the unsampled graph + 1), matching WeightedInDegrees.
	ins [][]inRef
	deg []float64
}

type inRef struct {
	src   int
	w     float64
	efeat []float64
}

// NewLocalFlattener indexes g's in-edges for request-time extraction.
func NewLocalFlattener(cfg FlatConfig, g *graph.Graph) *LocalFlattener {
	n := g.NumNodes()
	lf := &LocalFlattener{cfg: cfg.withDefaults(), g: g, ins: make([][]inRef, n), deg: make([]float64, n)}
	lf.index(slices.Repeat([]bool{true}, n))
	return lf
}

// index (re)builds the rows of the stale nodes: in-edges from the graph's
// edge table, the normalization degree (isolated nodes normalize by 1, as in
// WeightedInDegrees), then the one sampling decision per node.
func (lf *LocalFlattener) index(stale []bool) {
	for i, s := range stale {
		if s {
			lf.ins[i], lf.deg[i] = nil, 1
		}
	}
	for _, e := range lf.g.Edges {
		if di := lf.g.MustIndex(e.Dst); stale[di] {
			lf.ins[di] = append(lf.ins[di], inRef{src: lf.g.MustIndex(e.Src), w: e.Weight, efeat: e.Feat})
			lf.deg[di] += e.Weight
		}
	}
	srcKey := func(in inRef) (int64, float64) { return lf.g.Nodes[in.src].ID, in.w }
	for i, s := range stale {
		if s {
			lf.ins[i] = keepInEdges(lf.cfg.Strategy, lf.cfg.Seed, lf.g.Nodes[i].ID, 0, lf.cfg.MaxNeighbors, lf.ins[i], srcKey)
		}
	}
}

// Graph returns the graph version this flattener extracts from.
func (lf *LocalFlattener) Graph() *graph.Graph { return lf.g }

// Hops returns the neighborhood radius K the flattener extracts.
func (lf *LocalFlattener) Hops() int { return lf.cfg.Hops }

// Rebind returns a flattener over next, the graph produced by applying
// muts to lf's graph (see graph.Graph.Apply). Per-node in-edge rows are
// copy-on-write: only nodes whose in-edge set the batch touched are
// re-indexed and re-sampled, every other row is shared with lf. Rebound rows
// are rebuilt from next's edge table exactly as NewLocalFlattener would, so
// a rebound flattener's extractions are indistinguishable from a freshly
// constructed flattener's.
//
// lf itself is never modified: extractions in flight on the old version
// keep their consistent view.
func (lf *LocalFlattener) Rebind(next *graph.Graph, muts []graph.Mutation) *LocalFlattener {
	n, old := next.NumNodes(), len(lf.deg)
	out := &LocalFlattener{cfg: lf.cfg, g: next, ins: make([][]inRef, n), deg: make([]float64, n)}
	copy(out.ins, lf.ins)
	copy(out.deg, lf.deg)

	// New nodes start isolated; rows whose in-edge set changed are rebuilt.
	stale, dirty := make([]bool, n), n > old
	for i := old; i < n; i++ {
		stale[i] = true
	}
	for _, m := range muts {
		switch m.Op {
		case graph.OpAddEdge, graph.OpRemoveEdge:
			if di, ok := next.Index(m.Dst); ok {
				stale[di], dirty = true, true
			}
		}
	}
	if dirty {
		out.index(stale)
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
					Src:    lf.g.Nodes[in.src].ID,
					Dst:    lf.g.Nodes[v].ID,
					Weight: in.w,
					Feat:   in.efeat,
				})
				if !added[in.src] {
					added[in.src] = true
					sg.Nodes = append(sg.Nodes, lf.sgNode(in.src))
					next = append(next, in.src)
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
