package gnn

import (
	"math/rand"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// SAGELayer implements GraphSAGE (Hamilton et al. 2017) with a mean
// aggregator and the "add" combination the paper notes all three compared
// systems use:
//
//	H' = act( H · W_self + mean_{u∈N⁺}(H_u) · W_neigh + b )
//
// The aggregator passed to Forward must hold the row-normalized adjacency
// (each row sums to 1), which realizes the weighted mean.
type SAGELayer struct {
	WSelf, WNeigh, B *nn.Param
	Act              nn.ActKind

	in  int
	act nn.Activation
	h   *tensor.Matrix // cached input
	m   *tensor.Matrix // cached mean-aggregated neighbors
}

// NewSAGE builds a GraphSAGE layer mapping in-dimensional embeddings to out.
func NewSAGE(name string, in, out int, act nn.ActKind, rng *rand.Rand) *SAGELayer {
	return &SAGELayer{
		WSelf:  nn.GlorotParam(name+"/Wself", in, out, rng),
		WNeigh: nn.GlorotParam(name+"/Wneigh", in, out, rng),
		B:      nn.NewParam(name+"/b", 1, out),
		Act:    act,
		in:     in,
	}
}

// Params implements Layer.
func (l *SAGELayer) Params() []*nn.Param { return []*nn.Param{l.WSelf, l.WNeigh, l.B} }

// Forward implements Layer. Both products run over the output rows: the
// self term reads only those rows of h, the neighbor term the aggregate.
func (l *SAGELayer) Forward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, h *tensor.Matrix) *tensor.Matrix {
	l.h = h
	l.m = ws.GetUninit(ag.A.NumRows, h.Cols)
	ag.Forward(l.m, h)
	z := ws.GetUninit(h.Rows, l.WSelf.W.Cols)
	tensor.MatMulRows(z, h, l.WSelf.W, rows.Out)
	zn := ws.GetUninit(l.m.Rows, l.WNeigh.W.Cols)
	tensor.MatMulRows(zn, l.m, l.WNeigh.W, rows.Out)
	tensor.Add(z, z, zn)
	z.AddRowVector(l.B.W.Row(0))
	l.act = nn.Activation{Kind: l.Act}
	return l.act.ForwardRows(ws, z, rows.Out)
}

// Backward implements Layer.
func (l *SAGELayer) Backward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	dz := l.act.BackwardRows(ws, dy, rows.Out)
	// Parameter gradients.
	dws := ws.GetUninit(l.WSelf.W.Rows, l.WSelf.W.Cols)
	tensor.MatMulATBRows(dws, l.h, dz, rows.Out)
	tensor.AXPY(l.WSelf.Grad, 1, dws)
	dwn := ws.GetUninit(l.WNeigh.W.Rows, l.WNeigh.W.Cols)
	tensor.MatMulATBRows(dwn, l.m, dz, rows.Out)
	tensor.AXPY(l.WNeigh.Grad, 1, dwn)
	dz.ColSumsRowsInto(l.B.Grad.Row(0), rows.Out)
	if !inputGrad {
		return nil
	}
	// dH = dZ·W_selfᵀ + Aᵀ·(dZ·W_neighᵀ); the self term is zero off the
	// output rows.
	dh := ws.Get(dz.Rows, l.in)
	tensor.MatMulABTRows(dh, dz, l.WSelf.W, rows.Out)
	dm := ws.GetUninit(dz.Rows, l.in)
	tensor.MatMulABTRows(dm, dz, l.WNeigh.W, rows.Out)
	dhAgg := ws.GetUninit(ag.A.NumCols, l.in)
	ag.Backward(dhAgg, dm)
	tensor.Add(dh, dh, dhAgg)
	return dh
}
