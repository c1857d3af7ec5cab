// Package nn is the neural-network substrate beneath AGL's GNN models:
// named parameters, dense layers, activations, dropout, classification
// losses, SGD/Adam optimizers, and finite-difference gradient checking.
//
// The package deliberately avoids a tape-based autodiff engine: GNN models
// are fixed stacks of layers with hand-derived backward passes, which is
// both faster and easier to ship onto a parameter server where gradients
// travel as named dense tensors.
package nn

import (
	"fmt"
	"math/rand"

	"agl/internal/tensor"
)

// Param is a trainable parameter: a named dense matrix with an accumulated
// gradient of the same shape. Names are globally unique within a model and
// are the keys used by the parameter server.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a zeroed rows×cols parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// GlorotParam allocates a parameter with Glorot-uniform initialization.
func GlorotParam(name string, rows, cols int, rng *rand.Rand) *Param {
	p := NewParam(name, rows, cols)
	p.W.GlorotFill(rng)
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Clone returns a deep copy of the parameter (weights and gradient).
func (p *Param) Clone() *Param {
	return &Param{Name: p.Name, W: p.W.Clone(), Grad: p.Grad.Clone()}
}

// ParamSet is an ordered collection of parameters with unique names.
type ParamSet struct {
	byName map[string]*Param
	order  []string
}

// NewParamSet builds a set from params; duplicate names panic.
func NewParamSet(params ...*Param) *ParamSet {
	s := &ParamSet{byName: make(map[string]*Param)}
	for _, p := range params {
		s.Add(p)
	}
	return s
}

// Add inserts p; a duplicate name panics since it indicates a model bug.
func (s *ParamSet) Add(p *Param) {
	if _, ok := s.byName[p.Name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", p.Name))
	}
	s.byName[p.Name] = p
	s.order = append(s.order, p.Name)
}

// Get returns the parameter with the given name, or nil.
func (s *ParamSet) Get(name string) *Param { return s.byName[name] }

// Names returns parameter names in insertion order.
func (s *ParamSet) Names() []string { return append([]string(nil), s.order...) }

// List returns parameters in insertion order.
func (s *ParamSet) List() []*Param {
	out := make([]*Param, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.byName[n])
	}
	return out
}

// Len returns the number of parameters.
func (s *ParamSet) Len() int { return len(s.order) }

// ZeroGrads clears every parameter's gradient.
func (s *ParamSet) ZeroGrads() {
	for _, p := range s.byName {
		p.ZeroGrad()
	}
}

// NumValues returns the total number of scalar weights in the set.
func (s *ParamSet) NumValues() int {
	n := 0
	for _, p := range s.byName {
		n += len(p.W.Data)
	}
	return n
}

// CopyWeightsFrom overwrites this set's weights with src's, matched by name.
// Parameters present in only one set are an error.
func (s *ParamSet) CopyWeightsFrom(src *ParamSet) error {
	if s.Len() != src.Len() {
		return fmt.Errorf("nn: param set size mismatch %d vs %d", s.Len(), src.Len())
	}
	for name, p := range s.byName {
		q := src.Get(name)
		if q == nil {
			return fmt.Errorf("nn: missing parameter %q in source", name)
		}
		if q.W.Rows != p.W.Rows || q.W.Cols != p.W.Cols {
			return fmt.Errorf("nn: parameter %q shape mismatch", name)
		}
		p.W.CopyFrom(q.W)
	}
	return nil
}

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
