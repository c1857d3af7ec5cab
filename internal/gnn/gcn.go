package gnn

import (
	"math/rand"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// GCNLayer implements a graph convolution layer (Kipf & Welling 2016):
//
//	H' = act( Â · H · W + b )
//
// where Â is the symmetrically normalized adjacency with self loops. The
// aggregator passed to Forward must already hold Â (the model performs the
// normalization once per batch so per-layer pruned adjacencies stay
// consistent with the unpruned computation).
type GCNLayer struct {
	W, B *nn.Param
	Act  nn.ActKind

	act  nn.Activation
	hAgg *tensor.Matrix // cached Â·H
}

// NewGCN builds a GCN layer mapping in-dimensional embeddings to out.
func NewGCN(name string, in, out int, act nn.ActKind, rng *rand.Rand) *GCNLayer {
	return &GCNLayer{
		W:   nn.GlorotParam(name+"/W", in, out, rng),
		B:   nn.NewParam(name+"/b", 1, out),
		Act: act,
	}
}

// Params implements Layer.
func (l *GCNLayer) Params() []*nn.Param { return []*nn.Param{l.W, l.B} }

// Forward implements Layer. It transforms after aggregating, so its
// product runs over the output rows.
func (l *GCNLayer) Forward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, h *tensor.Matrix) *tensor.Matrix {
	l.hAgg = ws.GetUninit(ag.A.NumRows, h.Cols)
	ag.Forward(l.hAgg, h)
	z := ws.GetUninit(l.hAgg.Rows, l.W.W.Cols)
	tensor.MatMulRows(z, l.hAgg, l.W.W, rows.Out)
	z.AddRowVector(l.B.W.Row(0))
	l.act = nn.Activation{Kind: l.Act}
	return l.act.ForwardRows(ws, z, rows.Out)
}

// Backward implements Layer.
func (l *GCNLayer) Backward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	dz := l.act.BackwardRows(ws, dy, rows.Out)
	// dW += (Â·H)ᵀ · dZ, db += colsum(dZ)
	dw := ws.GetUninit(l.W.W.Rows, l.W.W.Cols)
	tensor.MatMulATBRows(dw, l.hAgg, dz, rows.Out)
	tensor.AXPY(l.W.Grad, 1, dw)
	dz.ColSumsRowsInto(l.B.Grad.Row(0), rows.Out)
	if !inputGrad {
		return nil
	}
	// dH = Âᵀ · (dZ · Wᵀ); Âᵀ reads only the output rows.
	dhAgg := ws.GetUninit(dz.Rows, l.W.W.Rows)
	tensor.MatMulABTRows(dhAgg, dz, l.W.W, rows.Out)
	dh := ws.GetUninit(ag.A.NumCols, l.W.W.Rows)
	ag.Backward(dh, dhAgg)
	return dh
}
