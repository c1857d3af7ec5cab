package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// GATLayer implements multi-head graph attention (Veličković et al. 2017).
// For each head with projection W and attention vectors a_src, a_dst:
//
//	z_i     = W·h_i
//	e_vu    = LeakyReLU( a_dst·z_v + a_src·z_u )   for every in-edge (v←u)
//	α_v·    = softmax over v's in-edges (the adjacency must include self loops)
//	out_v   = Σ_u α_vu · z_u
//
// Head outputs are concatenated, a bias added, and the activation applied.
// Adjacency edge weights are ignored — attention replaces them.
//
// The backward pass runs in two conflict-free parallel sweeps: a
// destination-partitioned sweep (softmax backward, per-row terms) and a
// source-partitioned sweep over the transpose using Aggregator.FwdIdx to
// read forward-pass attention state.
type GATLayer struct {
	Heads      int
	WH         []*nn.Param // per-head projection, in×headDim
	ASrc, ADst []*nn.Param // per-head attention vectors, headDim×1
	// AEdge holds per-head edge-feature attention vectors (edgeDim×1),
	// present only when the layer was built with edgeDim > 0; the
	// attention logit gains a term a_edge·e_vu (paper Eq. 1).
	AEdge      []*nn.Param
	B          *nn.Param // 1×out bias over concatenated heads
	Act        nn.ActKind
	LeakySlope float64 // attention LeakyReLU slope (default 0.2)

	in, out, headDim int
	act              nn.Activation
	hIn              *tensor.Matrix
	z                []*tensor.Matrix // per-head projections
	raw              [][]float64      // per-head pre-LeakyReLU edge logits
	alpha            [][]float64      // per-head attention coefficients
	draw             [][]float64      // per-head dL/d(raw), filled in Backward
}

// NewGAT builds a GAT layer with the given number of heads; out must be
// divisible by heads. edgeDim > 0 adds an edge-feature attention term.
func NewGAT(name string, in, out, heads, edgeDim int, act nn.ActKind, rng *rand.Rand) *GATLayer {
	if heads < 1 || out%heads != 0 {
		panic(fmt.Sprintf("gnn: GAT out dim %d not divisible by %d heads", out, heads))
	}
	hd := out / heads
	l := &GATLayer{
		Heads:      heads,
		B:          nn.NewParam(name+"/b", 1, out),
		Act:        act,
		LeakySlope: 0.2,
		in:         in,
		out:        out,
		headDim:    hd,
	}
	for h := 0; h < heads; h++ {
		l.WH = append(l.WH, nn.GlorotParam(fmt.Sprintf("%s/W%d", name, h), in, hd, rng))
		l.ASrc = append(l.ASrc, nn.GlorotParam(fmt.Sprintf("%s/asrc%d", name, h), hd, 1, rng))
		l.ADst = append(l.ADst, nn.GlorotParam(fmt.Sprintf("%s/adst%d", name, h), hd, 1, rng))
		if edgeDim > 0 {
			l.AEdge = append(l.AEdge, nn.GlorotParam(fmt.Sprintf("%s/aedge%d", name, h), edgeDim, 1, rng))
		}
	}
	return l
}

// Params implements Layer.
func (l *GATLayer) Params() []*nn.Param {
	ps := []*nn.Param{l.B}
	for h := 0; h < l.Heads; h++ {
		ps = append(ps, l.WH[h], l.ASrc[h], l.ADst[h])
		if l.AEdge != nil {
			ps = append(ps, l.AEdge[h])
		}
	}
	return ps
}

// edgeScore computes a_edge·e for one head, treating nil features as zero.
func (l *GATLayer) edgeScore(head int, ef []float64) float64 {
	if l.AEdge == nil || ef == nil {
		return 0
	}
	a := l.AEdge[head].W.Data
	var s float64
	for i, v := range ef {
		if i >= len(a) {
			break
		}
		s += a[i] * v
	}
	return s
}

func (l *GATLayer) leaky(x float64) float64 {
	if x > 0 {
		return x
	}
	return l.LeakySlope * x
}

func (l *GATLayer) leakyGrad(x float64) float64 {
	if x > 0 {
		return 1
	}
	return l.LeakySlope
}

// Forward implements Layer. The projection and the attention scores run
// over the input rows, the sources of the layer's adjacency.
func (l *GATLayer) Forward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, h *tensor.Matrix) *tensor.Matrix {
	a := ag.A
	n := a.NumRows
	nnz := a.NNZ()
	l.hIn = h
	if len(l.z) != l.Heads {
		l.z = make([]*tensor.Matrix, l.Heads)
		l.raw = make([][]float64, l.Heads)
		l.alpha = make([][]float64, l.Heads)
	}
	out := ws.Get(n, l.out)

	for hd := 0; hd < l.Heads; hd++ {
		z := ws.GetUninit(h.Rows, l.WH[hd].W.Cols)
		tensor.MatMulRows(z, h, l.WH[hd].W, rows.In)
		l.z[hd] = z
		ssrc := matVecWS(ws, z, l.ASrc[hd].W, rows.In)
		sdst := matVecWS(ws, z, l.ADst[hd].W, rows.In)
		raw := ws.Floats(nnz)
		alpha := ws.Floats(nnz)
		off := hd * l.headDim
		ag.RangeEdgesParallel(func(lo, hi int) {
			for v := lo; v < hi; v++ {
				elo, ehi := a.RowPtr[v], a.RowPtr[v+1]
				if elo == ehi {
					continue
				}
				maxv := math.Inf(-1)
				for e := elo; e < ehi; e++ {
					u := a.ColIdx[e]
					r := sdst[v] + ssrc[u]
					if ag.EFeat != nil {
						r += l.edgeScore(hd, ag.EFeat[e])
					}
					raw[e] = r
					lr := l.leaky(r)
					alpha[e] = lr
					if lr > maxv {
						maxv = lr
					}
				}
				var sum float64
				for e := elo; e < ehi; e++ {
					alpha[e] = math.Exp(alpha[e] - maxv)
					sum += alpha[e]
				}
				orow := out.Row(v)[off : off+l.headDim]
				for e := elo; e < ehi; e++ {
					alpha[e] /= sum
					zu := z.Row(a.ColIdx[e])
					c := alpha[e]
					for j, zv := range zu {
						orow[j] += c * zv
					}
				}
			}
		})
		l.raw[hd] = raw
		l.alpha[hd] = alpha
	}
	out.AddRowVector(l.B.W.Row(0))
	l.act = nn.Activation{Kind: l.Act}
	return l.act.ForwardRows(ws, out, rows.Out)
}

// Backward implements Layer. dZ is nonzero on the input rows only, so the
// weight and input gradients run over them.
func (l *GATLayer) Backward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	a, at := ag.A, ag.AT
	n := a.NumRows
	dOut := l.act.BackwardRows(ws, dy, rows.Out)
	dOut.ColSumsRowsInto(l.B.Grad.Row(0), rows.Out)
	var dh *tensor.Matrix
	if inputGrad {
		dh = ws.Get(l.hIn.Rows, l.in)
	}
	if len(l.draw) != l.Heads {
		l.draw = make([][]float64, l.Heads)
	}

	for hd := 0; hd < l.Heads; hd++ {
		z := l.z[hd]
		alpha := l.alpha[hd]
		raw := l.raw[hd]
		off := hd * l.headDim
		draw := ws.Floats(a.NNZ())
		dsdst := ws.Floats(n)
		dZ := ws.Get(n, l.headDim)

		// Sweep 1: destination-partitioned. Softmax backward per row and
		// the dsdst terms; both write only row-v state.
		ag.RangeEdgesParallel(func(lo, hi int) {
			dalpha := make([]float64, 0, 64)
			for v := lo; v < hi; v++ {
				elo, ehi := a.RowPtr[v], a.RowPtr[v+1]
				if elo == ehi {
					continue
				}
				dalpha = dalpha[:0]
				drow := dOut.Row(v)[off : off+l.headDim]
				var dot float64
				for e := elo; e < ehi; e++ {
					zu := z.Row(a.ColIdx[e])
					var da float64
					for j, g := range drow {
						da += g * zu[j]
					}
					dalpha = append(dalpha, da)
					dot += alpha[e] * da
				}
				var ds float64
				for e := elo; e < ehi; e++ {
					dl := alpha[e] * (dalpha[e-elo] - dot)
					dr := dl * l.leakyGrad(raw[e])
					draw[e] = dr
					ds += dr
				}
				dsdst[v] = ds
			}
		})

		// Sweep 2: source-partitioned over the transpose. Accumulates dZ[u]
		// and dssrc[u]; each u is owned by exactly one partition.
		dssrc := ws.Floats(n)
		ag.RangeEdgesParallelT(func(lo, hi int) {
			for u := lo; u < hi; u++ {
				elo, ehi := at.RowPtr[u], at.RowPtr[u+1]
				if elo == ehi {
					continue
				}
				zrow := dZ.Row(u)
				var dss float64
				for te := elo; te < ehi; te++ {
					v := at.ColIdx[te]
					e := ag.FwdIdx[te]
					dss += draw[e]
					c := alpha[e]
					drow := dOut.Row(v)[off : off+l.headDim]
					for j, g := range drow {
						zrow[j] += c * g
					}
				}
				dssrc[u] = dss
			}
		})

		// Edge-feature attention gradients: d a_edge += Σ_e draw[e]·e_vu.
		if l.AEdge != nil && ag.EFeat != nil {
			g := l.AEdge[hd].Grad.Data
			for e, ef := range ag.EFeat {
				if ef == nil || draw[e] == 0 {
					continue
				}
				d := draw[e]
				for i, v := range ef {
					if i >= len(g) {
						break
					}
					g[i] += d * v
				}
			}
		}

		// Score contributions to dZ and attention-vector gradients; dsdst
		// and dssrc are zero off the input rows.
		asrc := l.ASrc[hd].W.Data
		adst := l.ADst[hd].W.Data
		daSrc := ws.Floats(l.headDim)
		daDst := ws.Floats(l.headDim)
		for i := range tensor.EachRow(n, rows.In) {
			zrow := dZ.Row(i)
			zi := z.Row(i)
			if d := dsdst[i]; d != 0 {
				for j := range zrow {
					zrow[j] += d * adst[j]
					daDst[j] += d * zi[j]
				}
			}
			if d := dssrc[i]; d != 0 {
				for j := range zrow {
					zrow[j] += d * asrc[j]
					daSrc[j] += d * zi[j]
				}
			}
		}
		for j := 0; j < l.headDim; j++ {
			l.ASrc[hd].Grad.Data[j] += daSrc[j]
			l.ADst[hd].Grad.Data[j] += daDst[j]
		}

		// dW += Hᵀ·dZ ; dH += dZ·Wᵀ
		dw := ws.GetUninit(l.in, l.headDim)
		tensor.MatMulATBRows(dw, l.hIn, dZ, rows.In)
		tensor.AXPY(l.WH[hd].Grad, 1, dw)
		if inputGrad {
			dhHead := ws.GetUninit(n, l.in)
			tensor.MatMulABTRows(dhHead, dZ, l.WH[hd].W, rows.In)
			for r := range tensor.EachRow(n, rows.In) {
				d := dh.Row(r)
				for j, v := range dhHead.Row(r) {
					d[j] += v
				}
			}
		}
		l.draw[hd] = draw
	}
	return dh
}

// matVecWS computes the listed rows (every row when rows is nil) of m @ v
// for a column-vector parameter v (k×1), returning a dense []float64 of
// length m.Rows drawn from ws (nil allocates); other entries are zero.
func matVecWS(ws *tensor.Workspace, m *tensor.Matrix, v *tensor.Matrix, rows []int) []float64 {
	out := ws.Floats(m.Rows)
	for i := range tensor.EachRow(m.Rows, rows) {
		row := m.Row(i)
		var s float64
		for j, x := range row {
			s += x * v.Data[j]
		}
		out[i] = s
	}
	return out
}
