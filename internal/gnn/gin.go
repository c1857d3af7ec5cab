package gnn

import (
	"math/rand"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// GINLayer implements the Graph Isomorphism Network layer (Xu et al. 2019):
//
//	H' = MLP( (1+ε)·H + Σ_{u∈N⁺} w_vu·H_u )
//
// with a two-layer MLP (Dense → act → Dense → act) and a learnable ε
// (stored as a 1×1 parameter). The aggregator must hold the *raw* weighted
// adjacency — GIN's expressiveness argument depends on sum aggregation, so
// no normalization is applied.
//
// GIN is not part of the paper's evaluation; it exists to demonstrate that
// AGL's Layer contract (batch Forward/Backward over an aggregator) admits
// new architectures without touching GraphFlat, GraphTrainer or GraphInfer,
// whose rounds run the same Forward over blocks of nodes.
type GINLayer struct {
	W1, B1, W2, B2 *nn.Param
	Eps            *nn.Param
	Act            nn.ActKind

	in       int
	h        *tensor.Matrix
	agg      *tensor.Matrix
	combined *tensor.Matrix
	act1     nn.Activation
	act2     nn.Activation
	z1       *tensor.Matrix
}

// NewGIN builds a GIN layer with an MLP of width out.
func NewGIN(name string, in, out int, act nn.ActKind, rng *rand.Rand) *GINLayer {
	return &GINLayer{
		W1:  nn.GlorotParam(name+"/W1", in, out, rng),
		B1:  nn.NewParam(name+"/b1", 1, out),
		W2:  nn.GlorotParam(name+"/W2", out, out, rng),
		B2:  nn.NewParam(name+"/b2", 1, out),
		Eps: nn.NewParam(name+"/eps", 1, 1),
		Act: act,
		in:  in,
	}
}

// Params implements Layer.
func (l *GINLayer) Params() []*nn.Param {
	return []*nn.Param{l.W1, l.B1, l.W2, l.B2, l.Eps}
}

// Forward implements Layer. The combination and both MLP products run
// over the output rows.
func (l *GINLayer) Forward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, h *tensor.Matrix) *tensor.Matrix {
	l.h = h
	l.agg = ws.GetUninit(ag.A.NumRows, h.Cols)
	ag.Forward(l.agg, h)
	eps := l.Eps.W.Data[0]
	combined := ws.GetUninit(l.agg.Rows, l.agg.Cols)
	for r := range tensor.EachRow(combined.Rows, rows.Out) {
		c := combined.Row(r)
		copy(c, l.agg.Row(r))
		tensor.AXPYVec(c, h.Row(r), 1+eps)
	}
	l.combined = combined
	z1 := ws.GetUninit(combined.Rows, l.W1.W.Cols)
	tensor.MatMulRows(z1, combined, l.W1.W, rows.Out)
	z1.AddRowVector(l.B1.W.Row(0))
	l.act1 = nn.Activation{Kind: l.Act}
	a1 := l.act1.ForwardRows(ws, z1, rows.Out)
	l.z1 = a1
	z2 := ws.GetUninit(a1.Rows, l.W2.W.Cols)
	tensor.MatMulRows(z2, a1, l.W2.W, rows.Out)
	z2.AddRowVector(l.B2.W.Row(0))
	l.act2 = nn.Activation{Kind: l.Act}
	return l.act2.ForwardRows(ws, z2, rows.Out)
}

// Backward implements Layer.
func (l *GINLayer) Backward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	dz2 := l.act2.BackwardRows(ws, dy, rows.Out)
	dw2 := ws.GetUninit(l.W2.W.Rows, l.W2.W.Cols)
	tensor.MatMulATBRows(dw2, l.z1, dz2, rows.Out)
	tensor.AXPY(l.W2.Grad, 1, dw2)
	dz2.ColSumsRowsInto(l.B2.Grad.Row(0), rows.Out)
	da1 := ws.GetUninit(dz2.Rows, l.W2.W.Rows)
	tensor.MatMulABTRows(da1, dz2, l.W2.W, rows.Out)
	dz1 := l.act1.BackwardRows(ws, da1, rows.Out)
	dw1 := ws.GetUninit(l.W1.W.Rows, l.W1.W.Cols)
	tensor.MatMulATBRows(dw1, l.combined, dz1, rows.Out)
	tensor.AXPY(l.W1.Grad, 1, dw1)
	dz1.ColSumsRowsInto(l.B1.Grad.Row(0), rows.Out)
	// dCombined = dZ1 · W1ᵀ
	dc := ws.GetUninit(dz1.Rows, l.in)
	tensor.MatMulABTRows(dc, dz1, l.W1.W, rows.Out)
	// dε = Σ dc ⊙ h
	var deps float64
	for r := range tensor.EachRow(dc.Rows, rows.Out) {
		hr := l.h.Row(r)
		for i, v := range dc.Row(r) {
			deps += v * hr[i]
		}
	}
	l.Eps.Grad.Data[0] += deps
	if !inputGrad {
		return nil
	}
	// dH = (1+ε)·dc + Aᵀ·dc; both read dc on the output rows only.
	eps := l.Eps.W.Data[0]
	dh := ws.GetUninit(ag.A.NumCols, l.in)
	ag.Backward(dh, dc)
	for r := range tensor.EachRow(dh.Rows, rows.Out) {
		tensor.AXPYVec(dh.Row(r), dc.Row(r), 1+eps)
	}
	return dh
}
