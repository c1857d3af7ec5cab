package gnn

import (
	"fmt"
	"math/rand"

	"agl/internal/nn"
	"agl/internal/sampling"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// Model kinds understood by NewModel.
const (
	KindGCN  = "gcn"
	KindSAGE = "sage"
	KindGAT  = "gat"
	KindGIN  = "gin"
)

// Config describes a K-layer GNN plus its prediction head.
type Config struct {
	Kind    string     // "gcn", "sage" or "gat"
	InDim   int        // raw node feature dimension
	Hidden  int        // embedding dimension of every GNN layer
	Classes int        // output dimension of the prediction head
	Layers  int        // K, the number of GNN layers
	Heads   int        // attention heads (GAT only; default 1)
	Act     nn.ActKind // activation between layers
	Dropout float64    // drop probability during training (0 disables)
	Seed    int64      // parameter initialization and dropout-mask seed
	// EdgeDim is the edge-feature dimensionality. When > 0, GAT layers add
	// an edge term to their attention logits (paper Eq. 1's e_vu); GCN and
	// GraphSAGE ignore edge features.
	EdgeDim int
	// EdgeHead, when set ("dot", "bilinear" or "mlp"), makes this a
	// link-prediction model: the GNN stack produces endpoint embeddings and
	// an EdgeScorer turns embedding pairs into link logits. The dense node
	// head still exists (Classes-wide) but training and serving go through
	// the pairwise head.
	EdgeHead string
}

func (c Config) withDefaults() Config {
	if c.Heads == 0 {
		c.Heads = 1
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Act == nn.ActIdentity && c.Kind != "" {
		c.Act = nn.ActReLU
	}
	return c
}

// Model is a K-layer GNN with a dense prediction head. A Model instance is
// not safe for concurrent use: layers cache forward activations. Distributed
// workers each hold their own replica and synchronize weights by name
// through the parameter server.
type Model struct {
	Cfg    Config
	Layers []Layer
	Head   *nn.Dense
	// Edge is the pairwise link head; nil unless Cfg.EdgeHead is set.
	Edge *EdgeScorer

	drops  []nn.Dropout
	params *nn.ParamSet
}

// NewModel constructs a model from cfg with Glorot-initialized parameters.
func NewModel(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.InDim <= 0 || cfg.Hidden <= 0 || cfg.Classes <= 0:
		return nil, fmt.Errorf("gnn: bad dims %+v", cfg)
	case cfg.Layers < 0 || cfg.Heads < 0 || cfg.EdgeDim < 0:
		return nil, fmt.Errorf("gnn: negative Layers, Heads or EdgeDim %+v", cfg)
	case cfg.Kind == KindGAT && cfg.Hidden%cfg.Heads != 0:
		return nil, fmt.Errorf("gnn: GAT hidden dim %d not divisible by %d heads", cfg.Hidden, cfg.Heads)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	for i := 0; i < cfg.Layers; i++ {
		in := cfg.Hidden
		if i == 0 {
			in = cfg.InDim
		}
		name := fmt.Sprintf("l%d", i)
		var layer Layer
		switch cfg.Kind {
		case KindGCN:
			layer = NewGCN(name, in, cfg.Hidden, cfg.Act, rng)
		case KindSAGE:
			layer = NewSAGE(name, in, cfg.Hidden, cfg.Act, rng)
		case KindGAT:
			layer = NewGAT(name, in, cfg.Hidden, cfg.Heads, cfg.EdgeDim, cfg.Act, rng)
		case KindGIN:
			layer = NewGIN(name, in, cfg.Hidden, cfg.Act, rng)
		default:
			return nil, fmt.Errorf("gnn: unknown model kind %q", cfg.Kind)
		}
		m.Layers = append(m.Layers, layer)
		m.drops = append(m.drops, nn.Dropout{Rate: cfg.Dropout, Key: sampling.Key(uint64(cfg.Seed), uint64(i))})
	}
	m.Head = nn.NewDense("head", cfg.Hidden, cfg.Classes, rng)
	if cfg.EdgeHead != "" {
		edge, err := NewEdgeScorer("edge", cfg.EdgeHead, cfg.Hidden, rng)
		if err != nil {
			return nil, err
		}
		m.Edge = edge
	}
	m.rebuildParams()
	return m, nil
}

func (m *Model) rebuildParams() {
	m.params = nn.NewParamSet()
	for _, l := range m.Layers {
		for _, p := range l.Params() {
			m.params.Add(p)
		}
	}
	for _, p := range m.Head.Params() {
		m.params.Add(p)
	}
	if m.Edge != nil {
		for _, p := range m.Edge.Params() {
			m.params.Add(p)
		}
	}
}

// Params returns the model's parameter set (shared storage, not a copy).
func (m *Model) Params() *nn.ParamSet { return m.params }

// BatchGraph is the vectorized form of a merged batch of k-hop
// neighborhoods: the three matrices of paper §3.3.1 (A_B as CSR, X_B dense;
// E_B is carried by Adj.Val for weighted graphs) plus the target rows and
// the BFS distances that drive graph pruning.
type BatchGraph struct {
	Adj     *sparse.CSR    // merged adjacency: row=destination, col=source
	X       *tensor.Matrix // node features, one row per subgraph node
	Targets []int          // row indices of the labeled target nodes
	Dist    []int          // d(V_B, u) for every row; -1 if unreachable
	// Deg optionally carries each node's global normalization degree
	// (weighted in-degree + 1) from the GraphFeature. When nil, GCN
	// normalization falls back to degrees computed within the batch
	// subgraph — correct for whole-graph batches, boundary-lossy for
	// k-hop fragments.
	Deg []float64
	// EdgeFeat optionally maps (dst row, src row) to the edge's feature
	// vector — the E_B matrix of §3.3.1 in sparse form.
	EdgeFeat map[[2]int][]float64
}

// ComputeDistances BFS-computes d(V_B, u): the minimum number of edges on a
// directed path from u into any target, traversed backwards from the
// targets along in-edges (CSR rows). Unreachable nodes get -1.
func ComputeDistances(adj *sparse.CSR, targets []int) []int {
	dist := make([]int, adj.NumRows)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(targets))
	for _, t := range targets {
		if dist[t] == -1 {
			dist[t] = 0
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := adj.Row(v)
		for _, u := range cols {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// RunOptions toggles the paper's training-time optimization strategies.
type RunOptions struct {
	// Pruning enables per-layer graph pruning (paper §3.3.2): layer k
	// keeps only the edges, and runs its dense products only over the rows,
	// that can still influence a target.
	Pruning bool
	// Threads > 1 enables edge-partitioned parallel aggregation with that
	// many partitions.
	Threads int
	// Train enables dropout.
	Train bool
	// Key is the batch key: dropout masks are a function of (Config.Seed,
	// Key, layer, row, col), the same wherever and whenever the step runs.
	Key uint64
	// Workspace, when non-nil, is the per-step arena every temporary of
	// Prepare/Forward/Backward is drawn from. The caller resets it after
	// the step (and after copying out anything it wants to keep). Nil
	// falls back to plain allocation.
	Workspace *tensor.Workspace
}

// Prepared holds the per-batch, per-layer aggregation state: the normalized
// (and optionally pruned) adjacency of every layer and, under pruning, the
// rows each layer computes. Preparing is part of the subgraph-vectorization
// phase and is overlapped with model compute by the training pipeline.
type Prepared struct {
	Aggs []*sparse.Aggregator
	// Rows holds each layer's row lists; nil without pruning, which every
	// layer reads as "all rows".
	Rows []Rows
}

// Rows lists the batch rows one layer computes under pruning, ascending. A
// nil list means every row, so the zero Rows runs a layer over the whole
// batch.
type Rows struct {
	// Out holds the rows whose output a later layer or the head reads:
	// d(V_B,v) ≤ K−k−1 for 0-based layer k. The layer reads dy and writes
	// dense results only on these rows.
	Out []int
	// In holds the rows whose input the layer transforms, the sources of
	// its pruned adjacency: d(V_B,u) ≤ K−k. The layer reads h and writes
	// its input gradient only on these rows (the gradient is zero on every
	// other row).
	In []int
}

// layer returns layer k's row lists.
func (p *Prepared) layer(k int) Rows {
	if p.Rows == nil {
		return Rows{}
	}
	return p.Rows[k]
}

// Prepare normalizes the batch adjacency for the model kind and builds the
// per-layer aggregators. With pruning enabled, layer k's adjacency A^(k)
// keeps edge (v,u) only when d(V_B,v) ≤ K−k−1 and d(V_B,u) ≤ K−k (0-based
// k), so the final layer touches only the targets' in-edges, and layer k's
// dense products run only over the rows of its Rows lists: the same two
// distance bounds. Normalization happens once on the full batch adjacency
// before filtering, and every computed row sums the same terms in the same
// order as without pruning, so pruned and unpruned outputs for target nodes,
// and the parameter gradients, are bit-identical.
func (m *Model) Prepare(b *BatchGraph, opt RunOptions) *Prepared {
	ws := opt.Workspace
	norm := m.Cfg.normalize(ws, b)
	k := len(m.Layers)
	p := &Prepared{}
	// Aggregators hold only the adjacency, so without pruning every layer
	// shares one — the transpose and its partitions are built once per
	// batch instead of once per layer.
	var shared *sparse.Aggregator
	for i := 0; i < k; i++ {
		adj := norm
		if opt.Pruning {
			adj = norm.FilterByDistWS(ws, b.Dist, k-i-1, k-i)
		} else if shared != nil {
			p.Aggs = append(p.Aggs, shared)
			continue
		}
		ag := m.Cfg.aggregator(ws, b, adj, opt.Threads)
		if !opt.Pruning {
			shared = ag
		}
		p.Aggs = append(p.Aggs, ag)
	}
	if opt.Pruning {
		p.Rows = layerRows(ws, b.Dist, k)
	}
	return p
}

// normalize returns b's adjacency in the form layers of c.Kind aggregate:
// GCN's symmetric normalization with self loops (over b.Deg when set),
// GraphSAGE's row normalization, GAT's self loops, GIN's raw weights.
func (c Config) normalize(ws *tensor.Workspace, b *BatchGraph) *sparse.CSR {
	switch c.Kind {
	case KindGCN:
		if b.Deg != nil {
			return sparse.SymNormalizeWithDegWS(ws, b.Adj, b.Deg)
		}
		return b.Adj.SymNormalizeWS(ws)
	case KindSAGE:
		return b.Adj.RowNormalizeWS(ws)
	case KindGAT:
		return b.Adj.AddSelfLoopsWS(ws, 1)
	case KindGIN:
		return b.Adj // GIN sum-aggregates the raw weighted adjacency
	}
	panic("gnn: unknown kind " + c.Kind)
}

// aggregator builds a layer's aggregator over adj, a (possibly pruned)
// normalization of b's adjacency. When the model reads edge features it
// materializes E_B aligned with adj's edge array; absent entries (self
// loops) stay nil and read as zero vectors.
func (c Config) aggregator(ws *tensor.Workspace, b *BatchGraph, adj *sparse.CSR, threads int) *sparse.Aggregator {
	ag := sparse.NewAggregatorWS(ws, adj, threads)
	if c.EdgeDim > 0 && b.EdgeFeat != nil {
		ef := make([][]float64, adj.NNZ())
		for r := 0; r < adj.NumRows; r++ {
			lo, hi := adj.RowPtr[r], adj.RowPtr[r+1]
			for e := lo; e < hi; e++ {
				ef[e] = b.EdgeFeat[[2]int{r, adj.ColIdx[e]}]
			}
		}
		ag.EFeat = ef
	}
	return ag
}

// layerRows builds each of k layers' row lists from the batch's target
// distances: layer i's Out is the rows within k−i−1 hops of a target and
// its In those within k−i (unreachable rows, d = −1, are in neither). A
// list that would hold every row is nil.
func layerRows(ws *tensor.Workspace, dist []int, k int) []Rows {
	within := make([][]int, k+1) // within[t]: the rows with 0 ≤ d ≤ t
	for t := range within {
		n := 0
		for _, d := range dist {
			if d >= 0 && d <= t {
				n++
			}
		}
		if n == len(dist) {
			continue
		}
		rows := ws.Ints(n)[:0]
		for r, d := range dist {
			if d >= 0 && d <= t {
				rows = append(rows, r)
			}
		}
		within[t] = rows
	}
	out := make([]Rows, k)
	for i := range out {
		out[i] = Rows{Out: within[k-i-1], In: within[k-i]}
	}
	return out
}

// ForwardState carries activations between Forward and Backward.
type ForwardState struct {
	Prep   *Prepared
	H      *tensor.Matrix // final node embeddings (under pruning, valid on target rows only)
	Emb    *tensor.Matrix // target-row embeddings
	Logits *tensor.Matrix // head outputs for target rows
	b      *BatchGraph
	opt    RunOptions
}

// Forward runs the full model on a prepared batch and returns the state
// needed for Backward. With opt.Workspace set, every matrix in the state
// (including H, Emb and Logits) is workspace-owned and only valid until
// the workspace is reset.
func (m *Model) Forward(b *BatchGraph, prep *Prepared, opt RunOptions) *ForwardState {
	ws := opt.Workspace
	h := b.X
	for i, layer := range m.Layers {
		h = layer.Forward(ws, prep.Aggs[i], prep.layer(i), m.dropout(i, prep, opt, h))
	}
	emb := ws.GetUninit(len(b.Targets), h.Cols)
	h.RowsSubsetInto(emb, b.Targets)
	logits := m.Head.Forward(ws, emb)
	return &ForwardState{Prep: prep, H: h, Emb: emb, Logits: logits, b: b, opt: opt}
}

// dropout applies layer i's mask, when opt trains, to h (the layer's input
// or its gradient) on the rows the layer reads, the only rows it draws for.
func (m *Model) dropout(i int, prep *Prepared, opt RunOptions, h *tensor.Matrix) *tensor.Matrix {
	if !opt.Train {
		return h
	}
	return m.drops[i].Apply(opt.Workspace, h, prep.layer(i).In, opt.Key)
}

// Backward propagates dLogits through the head and all layers, accumulating
// gradients into the model's parameters.
func (m *Model) Backward(st *ForwardState, dLogits *tensor.Matrix) {
	ws := st.opt.Workspace
	dEmb := m.Head.Backward(ws, dLogits)
	dh := ws.Get(st.H.Rows, st.H.Cols)
	tensor.ScatterRowsAdd(dh, dEmb, st.b.Targets)
	m.backwardLayers(st.opt, st.Prep, dh)
}

// backwardLayers propagates dL/dH of the last layer down the layer stack of
// a pass run with opt, accumulating every layer's parameter gradients. The
// first layer's input is the batch's raw features, whose gradient nothing
// reads, so neither that layer's input gradient nor its dropout is computed.
func (m *Model) backwardLayers(opt RunOptions, prep *Prepared, dh *tensor.Matrix) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		dh = m.Layers[i].Backward(opt.Workspace, prep.Aggs[i], prep.layer(i), dh, true)
		dh = m.dropout(i, prep, opt, dh)
	}
	m.Layers[0].Backward(opt.Workspace, prep.Aggs[0], prep.layer(0), dh, false)
}

// Infer runs a forward pass with dropout disabled and returns the target
// logits. Used by evaluation.
func (m *Model) Infer(b *BatchGraph, opt RunOptions) *tensor.Matrix {
	opt.Train = false
	prep := m.Prepare(b, opt)
	return m.Forward(b, prep, opt).Logits
}
