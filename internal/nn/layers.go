package nn

import (
	"math"

	"agl/internal/sampling"
	"agl/internal/tensor"
)

// Every layer's Forward/Backward takes a *tensor.Workspace as its first
// argument: all temporaries (outputs, cached activations, gradient
// scratch) are drawn from it and live until the workspace is Reset at the
// end of the step. A nil workspace is always valid and falls back to plain
// allocation, which is what one-shot callers (gradient checks, tests) use.

// Activation is an elementwise nonlinearity with a hand-written derivative.
type Activation struct {
	Kind ActKind
	// LeakySlope is the negative-region slope for LeakyReLU (default 0.01 if
	// zero when Kind == ActLeakyReLU).
	LeakySlope float64

	x *tensor.Matrix
	y *tensor.Matrix
}

// ActKind selects an activation function.
type ActKind int

// Supported activations.
const (
	ActIdentity ActKind = iota
	ActReLU
	ActLeakyReLU
	ActTanh
	ActSigmoid
	ActELU
)

// String names the activation for logs and serialized models.
func (k ActKind) String() string {
	switch k {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActLeakyReLU:
		return "leaky_relu"
	case ActTanh:
		return "tanh"
	case ActSigmoid:
		return "sigmoid"
	case ActELU:
		return "elu"
	}
	return "unknown"
}

// Forward applies the activation elementwise, caching what backward needs.
func (a *Activation) Forward(ws *tensor.Workspace, x *tensor.Matrix) *tensor.Matrix {
	return a.ForwardRows(ws, x, nil)
}

// ForwardRows is Forward over the listed rows of x only (ascending; nil
// means every row): no other row of x is read, and the other rows of the
// result are zero.
func (a *Activation) ForwardRows(ws *tensor.Workspace, x *tensor.Matrix, rows []int) *tensor.Matrix {
	a.x = x
	y := ws.Get(x.Rows, x.Cols)
	slope := a.LeakySlope
	if slope == 0 {
		slope = 0.01
	}
	for r := range tensor.EachRow(x.Rows, rows) {
		yr := y.Row(r)
		for i, v := range x.Row(r) {
			switch a.Kind {
			case ActIdentity:
				yr[i] = v
			case ActReLU:
				if v > 0 {
					yr[i] = v
				}
			case ActLeakyReLU:
				if v > 0 {
					yr[i] = v
				} else {
					yr[i] = slope * v
				}
			case ActTanh:
				yr[i] = math.Tanh(v)
			case ActSigmoid:
				yr[i] = 1 / (1 + math.Exp(-v))
			case ActELU:
				if v > 0 {
					yr[i] = v
				} else {
					yr[i] = math.Exp(v) - 1
				}
			}
		}
	}
	a.y = y
	return y
}

// Backward returns dX = dY ⊙ f'(X).
func (a *Activation) Backward(ws *tensor.Workspace, dy *tensor.Matrix) *tensor.Matrix {
	return a.BackwardRows(ws, dy, nil)
}

// BackwardRows is Backward over the listed rows only, which must be those
// ForwardRows computed or a subset of them: no other row of dy or of the
// cached activations is read, and the other rows of dX are zero.
func (a *Activation) BackwardRows(ws *tensor.Workspace, dy *tensor.Matrix, rows []int) *tensor.Matrix {
	dx := ws.Get(dy.Rows, dy.Cols)
	slope := a.LeakySlope
	if slope == 0 {
		slope = 0.01
	}
	for r := range tensor.EachRow(dy.Rows, rows) {
		dxr, xr, yr := dx.Row(r), a.x.Row(r), a.y.Row(r)
		for i, g := range dy.Row(r) {
			switch a.Kind {
			case ActIdentity:
				dxr[i] = g
			case ActReLU:
				if xr[i] > 0 {
					dxr[i] = g
				}
			case ActLeakyReLU:
				if xr[i] > 0 {
					dxr[i] = g
				} else {
					dxr[i] = slope * g
				}
			case ActTanh:
				t := yr[i]
				dxr[i] = g * (1 - t*t)
			case ActSigmoid:
				s := yr[i]
				dxr[i] = g * s * (1 - s)
			case ActELU:
				if xr[i] > 0 {
					dxr[i] = g
				} else {
					dxr[i] = g * (yr[i] + 1)
				}
			}
		}
	}
	return dx
}

// Dropout is inverted dropout with keyed masks. In the batch keyed b,
// element (r, c) survives, scaled by 1/(1−Rate), when
// sampling.U(sampling.Key(Key, b, r), c) < 1−Rate: a mask is a function of
// (Key, b, r, c) alone, so any subset of rows draws exactly those rows of
// the full-batch mask, and the backward pass recomputes it with Apply
// instead of storing it.
type Dropout struct {
	Rate float64
	Key  uint64
}

// Apply multiplies the listed rows of m (ascending; nil means every row), an
// input in the forward pass or its gradient in the backward pass, by the
// batch's mask. No other row of m is read, and the other rows of the result
// are zero. A non-positive Rate returns m itself.
func (d Dropout) Apply(ws *tensor.Workspace, m *tensor.Matrix, rows []int, batch uint64) *tensor.Matrix {
	if d.Rate <= 0 {
		return m
	}
	keep := 1 - d.Rate
	out := ws.Get(m.Rows, m.Cols)
	for r := range tensor.EachRow(m.Rows, rows) {
		key := sampling.Key(d.Key, batch, uint64(r))
		or := out.Row(r)
		for c, v := range m.Row(r) {
			if sampling.U(key, uint64(c)) < keep {
				or[c] = v / keep
			}
		}
	}
	return out
}
