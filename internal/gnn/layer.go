// Package gnn implements the GNN model zoo evaluated in the AGL paper —
// GCN, GraphSAGE and GAT, plus GIN — as fixed stacks of layers with
// hand-derived backward passes over CSR adjacency, plus the model-level
// machinery the system needs: per-layer pruned adjacency, edge-partitioned
// parallel aggregation, model (de)serialization, and hierarchical model
// segmentation into inference slices. Every layer has one forward pass: a
// slice runs its layer's batch Forward over a block of nodes, the same code
// training and the serving cold path run.
package gnn

import (
	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// Layer is one GNN layer. Forward/Backward operate on whole batch
// subgraphs via an Aggregator (which encapsulates the adjacency and the
// edge-partitioned parallelism) and the layer's Rows (the zero Rows means
// every row). Training, evaluation, the serving cold path and GraphInfer's
// per-layer rounds all run this one Forward, so a layer's math lives in one
// place. Forward/Backward draw every temporary from the per-step workspace
// (nil allocates), so one Reset after the optimizer step recycles the whole
// layer stack's memory.
type Layer interface {
	// Forward computes H^{(k)} from H^{(k-1)} over the given adjacency. It
	// reads h only on rows.In; the result is valid on rows.Out only.
	Forward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, h *tensor.Matrix) *tensor.Matrix
	// Backward consumes dL/dH^{(k)}, read on rows.Out only, and
	// accumulates parameter gradients. With inputGrad it returns
	// dL/dH^{(k-1)}, zero outside rows.In; without it, it returns nil and
	// skips that work (the first layer's input is the raw features, whose
	// gradient nothing reads). Must be called after Forward with the same
	// aggregator, rows and workspace.
	Backward(ws *tensor.Workspace, ag *sparse.Aggregator, rows Rows, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix
	// Params returns the layer's trainable parameters.
	Params() []*nn.Param
}

// ApplyDense computes a dense layer's output for a single row vector
// without touching the layer's forward cache, so concurrent callers can
// share one prediction slice: GraphInfer's prediction round, the serving
// warm path and the MLP edge head. Like nn.Dense.Forward it sums the
// products in input order and adds the bias last, so its logits equal the
// batch forward pass's bit for bit (with finite weights a zero input adds
// nothing either way).
func ApplyDense(d *nn.Dense, h []float64) []float64 {
	out := make([]float64, d.W.W.Cols)
	for i, v := range h {
		if v == 0 {
			continue
		}
		row := d.W.W.Row(i)
		for j, w := range row {
			out[j] += v * w
		}
	}
	for j, b := range d.B.W.Row(0) {
		out[j] += b
	}
	return out
}
