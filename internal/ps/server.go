// Package ps implements the parameter-server substrate GraphTrainer runs
// on: sharded servers holding named dense parameters, workers that pull
// weights and push gradients, and a synchronous (BSP, gradient-averaging)
// and an asynchronous consistency mode. Workers reach the shards in
// process (Cluster.Client).
package ps

import (
	"fmt"
	"sync"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// Mode selects the consistency model.
type Mode int

// Consistency modes.
const (
	// Async applies every pushed gradient immediately (Hogwild-style).
	Async Mode = iota
	// Sync is bulk-synchronous: pushes block until every registered worker
	// has contributed, then the averaged gradient is applied once.
	Sync
)

// String names the mode.
func (m Mode) String() string {
	if m == Sync {
		return "sync"
	}
	return "async"
}

// Shard is one parameter-server process: it owns a subset of the model's
// parameters and applies its optimizer to pushed gradients.
type Shard struct {
	mu   sync.Mutex
	cond *sync.Cond

	params  map[string]*tensor.Matrix
	opt     nn.Optimizer
	mode    Mode
	workers int
	arrived int
	pending map[string]*tensor.Matrix
	version int64

	pulls, pushes int64
	bytesOut      int64
	bytesIn       int64
}

// NewShard builds a shard owning the given parameters (weights are copied).
func NewShard(params []*nn.Param, opt nn.Optimizer, mode Mode) *Shard {
	s := &Shard{
		params:  make(map[string]*tensor.Matrix, len(params)),
		pending: make(map[string]*tensor.Matrix),
		opt:     opt,
		mode:    mode,
	}
	s.cond = sync.NewCond(&s.mu)
	for _, p := range params {
		s.params[p.Name] = p.W.Clone()
	}
	return s
}

// Register adds a worker to the synchronization group (sync mode).
func (s *Shard) Register() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers++
}

// Deregister removes a worker; if it was the last one outstanding in the
// current step, the step is applied so remaining workers are not blocked.
func (s *Shard) Deregister() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workers > 0 {
		s.workers--
	}
	if s.mode == Sync && s.workers > 0 && s.arrived >= s.workers {
		s.applyPendingLocked()
	}
	s.cond.Broadcast()
}

// Pull copies the current weights for the requested names.
func (s *Shard) Pull(names []string) (map[string]*tensor.Matrix, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*tensor.Matrix, len(names))
	for _, n := range names {
		w, ok := s.params[n]
		if !ok {
			return nil, fmt.Errorf("ps: unknown parameter %q", n)
		}
		out[n] = w.Clone()
		s.bytesOut += int64(len(w.Data) * 8)
	}
	s.pulls++
	return out, nil
}

// Push delivers gradients. In Async mode they are applied immediately; in
// Sync mode the call blocks until all registered workers have pushed for
// this step and the averaged gradient has been applied.
func (s *Shard) Push(grads map[string]*tensor.Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, g := range grads {
		if w, ok := s.params[n]; !ok || w.Rows != g.Rows || w.Cols != g.Cols {
			return fmt.Errorf("ps: push of unknown or misshapen parameter %q", n)
		}
		s.bytesIn += int64(len(g.Data) * 8)
	}
	s.pushes++
	switch s.mode {
	case Async:
		for n, g := range grads {
			s.applyOneLocked(n, g, 1)
		}
		s.version++
		return nil
	case Sync:
		for n, g := range grads {
			acc, ok := s.pending[n]
			if !ok {
				acc = tensor.New(g.Rows, g.Cols)
				s.pending[n] = acc
			}
			tensor.AXPY(acc, 1, g)
		}
		s.arrived++
		if s.arrived >= s.workers {
			s.applyPendingLocked()
			s.cond.Broadcast()
			return nil
		}
		myVersion := s.version
		for s.version == myVersion && s.arrived > 0 {
			s.cond.Wait()
		}
		return nil
	}
	return fmt.Errorf("ps: unknown mode %d", s.mode)
}

// applyPendingLocked averages and applies the accumulated step.
func (s *Shard) applyPendingLocked() {
	scale := 1.0
	if s.arrived > 0 {
		scale = 1 / float64(s.arrived)
	}
	for n, g := range s.pending {
		s.applyOneLocked(n, g, scale)
	}
	s.pending = make(map[string]*tensor.Matrix)
	s.arrived = 0
	s.version++
}

func (s *Shard) applyOneLocked(name string, grad *tensor.Matrix, scale float64) {
	w := s.params[name]
	p := &nn.Param{Name: name, W: w, Grad: grad}
	if scale != 1 {
		p.Grad = grad.Clone()
		p.Grad.Scale(scale)
	}
	s.opt.Step(p)
}

// Version returns the number of applied optimizer steps.
func (s *Shard) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Traffic returns cumulative bytes served and received.
func (s *Shard) Traffic() (out, in int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesOut, s.bytesIn
}

// Snapshot copies the shard's current weights into dst (matched by name;
// missing names are skipped). Used to read back the trained model.
func (s *Shard) Snapshot(dst *nn.ParamSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, w := range s.params {
		if p := dst.Get(name); p != nil {
			p.W.CopyFrom(w)
		}
	}
}

// Names lists the parameters this shard owns.
func (s *Shard) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.params))
	for n := range s.params {
		out = append(out, n)
	}
	return out
}
