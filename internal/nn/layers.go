package nn

import (
	"math"
	"math/rand"

	"agl/internal/tensor"
)

// Every layer's Forward/Backward takes a *tensor.Workspace as its first
// argument: all temporaries (outputs, cached activations, gradient
// scratch) are drawn from it and live until the workspace is Reset at the
// end of the step. A nil workspace is always valid and falls back to plain
// allocation, which is what one-shot callers (gradient checks, tests) use.

// Dense is a fully connected layer Y = X·W + b.
type Dense struct {
	W, B *Param

	x *tensor.Matrix // cached input for backward
}

// NewDense builds an in×out dense layer with Glorot-initialized weights.
// name prefixes the parameter names ("<name>/W", "<name>/b").
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		W: GlorotParam(name+"/W", in, out, rng),
		B: NewParam(name+"/b", 1, out),
	}
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes Y = X·W + b and caches X.
func (d *Dense) Forward(ws *tensor.Workspace, x *tensor.Matrix) *tensor.Matrix {
	d.x = x
	y := ws.GetUninit(x.Rows, d.W.W.Cols)
	tensor.MatMul(y, x, d.W.W)
	y.AddRowVector(d.B.W.Row(0))
	return y
}

// Backward accumulates dW, db and returns dX given dY.
func (d *Dense) Backward(ws *tensor.Workspace, dy *tensor.Matrix) *tensor.Matrix {
	// dW += Xᵀ·dY
	dw := ws.GetUninit(d.W.W.Rows, d.W.W.Cols)
	tensor.MatMulATB(dw, d.x, dy)
	tensor.AXPY(d.W.Grad, 1, dw)
	// db += colsum(dY)
	dy.ColSumsInto(d.B.Grad.Row(0))
	// dX = dY·Wᵀ
	dx := ws.GetUninit(dy.Rows, d.W.W.Rows)
	tensor.MatMulABT(dx, dy, d.W.W)
	return dx
}

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

// Dropout implements inverted dropout. In evaluation mode it is the
// identity.
type Dropout struct {
	Rate  float64
	Train bool
	Rng   *rand.Rand

	// mask is reused across Forward calls whenever the incoming shape
	// still fits its capacity; active reports whether the last Forward
	// actually dropped (mask stays allocated while inactive).
	mask   []float64
	active bool
}

// NewDropout builds a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	return &Dropout{Rate: rate, Train: true, Rng: rng}
}

// Forward drops entries with probability Rate and rescales survivors.
func (d *Dropout) Forward(ws *tensor.Workspace, x *tensor.Matrix) *tensor.Matrix {
	if !d.Train || d.Rate <= 0 {
		d.active = false
		return x
	}
	keep := 1 - d.Rate
	y := ws.Get(x.Rows, x.Cols)
	n := len(x.Data)
	if cap(d.mask) >= n {
		d.mask = d.mask[:n]
		clear(d.mask)
	} else {
		d.mask = make([]float64, n)
	}
	d.active = true
	for i, v := range x.Data {
		if d.Rng.Float64() < keep {
			d.mask[i] = 1 / keep
			y.Data[i] = v / keep
		}
	}
	return y
}

// Backward applies the saved mask to the incoming gradient.
func (d *Dropout) Backward(ws *tensor.Workspace, dy *tensor.Matrix) *tensor.Matrix {
	if !d.active {
		return dy
	}
	dx := ws.Get(dy.Rows, dy.Cols)
	for i, g := range dy.Data {
		dx.Data[i] = g * d.mask[i]
	}
	return dx
}
