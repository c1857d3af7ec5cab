package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// Edge-head kinds for Config.EdgeHead — the pairwise scoring function of a
// link-prediction model, applied to the two endpoint embeddings.
const (
	// EdgeHeadDot scores a pair by the dot product of its embeddings
	// (parameter-free; the GraphSAGE / GiGL default).
	EdgeHeadDot = "dot"
	// EdgeHeadBilinear scores hs·W·hd with a learned D×D matrix (DistMult
	// generalization; breaks the dot product's symmetry for directed links).
	EdgeHeadBilinear = "bilinear"
	// EdgeHeadMLP runs a small MLP over the concatenated embeddings
	// (concat(hs,hd) → D → 1, tanh hidden).
	EdgeHeadMLP = "mlp"
)

// ValidEdgeHead reports whether kind names a known edge-head ("" is valid:
// no edge head, a node-task model).
func ValidEdgeHead(kind string) bool {
	switch kind {
	case "", EdgeHeadDot, EdgeHeadBilinear, EdgeHeadMLP:
		return true
	}
	return false
}

// EdgeScorer is the pairwise prediction head of a link-prediction model: it
// turns two endpoint embeddings into one link logit. Batch Forward/Backward
// cache activations and are not safe for concurrent use (same contract as
// the model layers); ScoreVec is stateless and safe to call concurrently —
// it is the online warm path.
type EdgeScorer struct {
	Kind string
	Dim  int

	// W is the bilinear form (EdgeHeadBilinear only).
	W *nn.Param
	// L1/L2 are the MLP layers (EdgeHeadMLP only): concat(2D) → D → 1.
	L1, L2 *nn.Dense

	// Cached forward state for Backward.
	hs, hd *tensor.Matrix
	v      *tensor.Matrix // bilinear: hd·Wᵀ
	act    *nn.Activation // mlp hidden activation
}

// NewEdgeScorer builds a pairwise head over dim-dimensional embeddings.
// name prefixes the parameter names (parameter-server keys).
func NewEdgeScorer(name, kind string, dim int, rng *rand.Rand) (*EdgeScorer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("gnn: edge scorer needs dim >= 1, got %d", dim)
	}
	s := &EdgeScorer{Kind: kind, Dim: dim}
	switch kind {
	case EdgeHeadDot:
	case EdgeHeadBilinear:
		s.W = nn.GlorotParam(name+"/W", dim, dim, rng)
	case EdgeHeadMLP:
		s.L1 = nn.NewDense(name+"/l1", 2*dim, dim, rng)
		s.L2 = nn.NewDense(name+"/l2", dim, 1, rng)
		s.act = &nn.Activation{Kind: nn.ActTanh}
	default:
		return nil, fmt.Errorf("gnn: unknown edge head %q (want %s|%s|%s)",
			kind, EdgeHeadDot, EdgeHeadBilinear, EdgeHeadMLP)
	}
	return s, nil
}

// Params returns the scorer's trainable parameters (empty for dot).
func (s *EdgeScorer) Params() []*nn.Param {
	switch s.Kind {
	case EdgeHeadBilinear:
		return []*nn.Param{s.W}
	case EdgeHeadMLP:
		return append(s.L1.Params(), s.L2.Params()...)
	}
	return nil
}

// Forward scores P pairs: hs and hd are P×D matrices of source and
// destination embeddings (row p is pair p). Returns the P×1 logit matrix
// and caches what Backward needs.
func (s *EdgeScorer) Forward(ws *tensor.Workspace, hs, hd *tensor.Matrix) *tensor.Matrix {
	s.hs, s.hd = hs, hd
	switch s.Kind {
	case EdgeHeadDot:
		out := ws.GetUninit(hs.Rows, 1)
		for p := 0; p < hs.Rows; p++ {
			out.Data[p] = dot(hs.Row(p), hd.Row(p))
		}
		return out
	case EdgeHeadBilinear:
		// v[p] = W·hd[p]; logit[p] = hs[p]·v[p].
		v := ws.GetUninit(hd.Rows, s.Dim)
		tensor.MatMulABT(v, hd, s.W.W)
		s.v = v
		out := ws.GetUninit(hs.Rows, 1)
		for p := 0; p < hs.Rows; p++ {
			out.Data[p] = dot(hs.Row(p), v.Row(p))
		}
		return out
	case EdgeHeadMLP:
		z := ws.GetUninit(hs.Rows, hs.Cols+hd.Cols)
		tensor.ConcatColsInto(z, hs, hd)
		return s.L2.Forward(ws, s.act.Forward(ws, s.L1.Forward(ws, z)))
	}
	panic("gnn: unknown edge head " + s.Kind)
}

// Backward propagates dLogits (P×1) through the scorer, accumulating
// parameter gradients and returning (dHs, dHd) for the endpoint rows.
func (s *EdgeScorer) Backward(ws *tensor.Workspace, dLogits *tensor.Matrix) (*tensor.Matrix, *tensor.Matrix) {
	switch s.Kind {
	case EdgeHeadDot:
		dhs := ws.Get(s.hs.Rows, s.Dim)
		dhd := ws.Get(s.hd.Rows, s.Dim)
		for p := 0; p < s.hs.Rows; p++ {
			g := dLogits.Data[p]
			axpyVec(dhs.Row(p), g, s.hd.Row(p))
			axpyVec(dhd.Row(p), g, s.hs.Row(p))
		}
		return dhs, dhd
	case EdgeHeadBilinear:
		// Scale source rows by the pair gradient once, then every term is a
		// plain matmul: dW += gHsᵀ·hd, dHd = gHs·W, dHs[p] = g·v[p].
		ghs := ws.Get(s.hs.Rows, s.Dim)
		dhs := ws.Get(s.hs.Rows, s.Dim)
		for p := 0; p < s.hs.Rows; p++ {
			g := dLogits.Data[p]
			axpyVec(ghs.Row(p), g, s.hs.Row(p))
			axpyVec(dhs.Row(p), g, s.v.Row(p))
		}
		dw := ws.GetUninit(s.Dim, s.Dim)
		tensor.MatMulATB(dw, ghs, s.hd)
		tensor.AXPY(s.W.Grad, 1, dw)
		dhd := ws.GetUninit(ghs.Rows, s.W.W.Cols)
		tensor.MatMul(dhd, ghs, s.W.W)
		return dhs, dhd
	case EdgeHeadMLP:
		dz := s.L1.Backward(ws, s.act.Backward(ws, s.L2.Backward(ws, dLogits)))
		dhs := ws.GetUninit(dz.Rows, s.Dim)
		dz.SliceColsInto(dhs, 0, s.Dim)
		dhd := ws.GetUninit(dz.Rows, s.Dim)
		dz.SliceColsInto(dhd, s.Dim, 2*s.Dim)
		return dhs, dhd
	}
	panic("gnn: unknown edge head " + s.Kind)
}

// ScoreVec scores one pair of embedding vectors. Unlike Forward it caches
// nothing, so concurrent callers are safe — this is the serving tier's warm
// path (two store lookups feed straight into it).
func (s *EdgeScorer) ScoreVec(hs, hd []float64) float64 {
	switch s.Kind {
	case EdgeHeadDot:
		return dot(hs, hd)
	case EdgeHeadBilinear:
		// hs·W·hd without materializing W·hd: accumulate row by row.
		var out float64
		for i, a := range hs {
			out += a * dot(s.W.W.Row(i), hd)
		}
		return out
	case EdgeHeadMLP:
		z := make([]float64, 0, 2*s.Dim)
		z = append(append(z, hs...), hd...)
		h := ApplyDense(s.L1, z)
		for i, v := range h {
			h[i] = math.Tanh(v)
		}
		return ApplyDense(s.L2, h)[0]
	}
	panic("gnn: unknown edge head " + s.Kind)
}

func axpyVec(dst []float64, alpha float64, x []float64) {
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// EdgeForwardState carries activations between ForwardEdges and
// BackwardEdges.
type EdgeForwardState struct {
	Prep   *Prepared
	H      *tensor.Matrix // final node embeddings (under pruning, valid on endpoint rows only)
	Hs, Hd *tensor.Matrix // endpoint embeddings, one row per pair
	Logits *tensor.Matrix // P×1 link logits
	b      *BatchGraph
	src    []int
	dst    []int
	opt    RunOptions
}

// ForwardEdges runs the GNN stack on a prepared batch and scores the
// (src[p], dst[p]) row pairs with the model's edge head. The model must
// have been built with Config.EdgeHead set.
func (m *Model) ForwardEdges(b *BatchGraph, prep *Prepared, src, dst []int, opt RunOptions) *EdgeForwardState {
	ws := opt.Workspace
	h := b.X
	for i, layer := range m.Layers {
		h = layer.Forward(ws, prep.Aggs[i], prep.layer(i), m.dropout(i, prep, opt, h))
	}
	hs := ws.GetUninit(len(src), h.Cols)
	h.RowsSubsetInto(hs, src)
	hd := ws.GetUninit(len(dst), h.Cols)
	h.RowsSubsetInto(hd, dst)
	logits := m.Edge.Forward(ws, hs, hd)
	return &EdgeForwardState{Prep: prep, H: h, Hs: hs, Hd: hd, Logits: logits, b: b, src: src, dst: dst, opt: opt}
}

// BackwardEdges propagates dLogits (P×1) through the edge head and all
// layers, accumulating gradients into the model's parameters. Pairs sharing
// an endpoint row accumulate additively, as do pairs whose src and dst map
// to the same row.
func (m *Model) BackwardEdges(st *EdgeForwardState, dLogits *tensor.Matrix) {
	ws := st.opt.Workspace
	dhs, dhd := m.Edge.Backward(ws, dLogits)
	dh := ws.Get(st.H.Rows, st.H.Cols)
	tensor.ScatterRowsAdd(dh, dhs, st.src)
	tensor.ScatterRowsAdd(dh, dhd, st.dst)
	m.backwardLayers(st.opt, st.Prep, dh)
}

// InferEdges runs ForwardEdges with dropout disabled and returns the link
// logits. Used by evaluation.
func (m *Model) InferEdges(b *BatchGraph, src, dst []int, opt RunOptions) *tensor.Matrix {
	opt.Train = false
	prep := m.Prepare(b, opt)
	return m.ForwardEdges(b, prep, src, dst, opt).Logits
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
