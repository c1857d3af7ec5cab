// Package gnn implements the GNN model zoo evaluated in the AGL paper —
// GCN, GraphSAGE and GAT — as fixed stacks of layers with hand-derived
// backward passes over CSR adjacency, plus the model-level machinery the
// system needs: per-layer pruned adjacency, edge-partitioned parallel
// aggregation, model (de)serialization, and hierarchical model segmentation
// into inference slices.
package gnn

import (
	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// NeighborMsg is the unit of message passing during sliced (per-node)
// inference: one in-edge neighbor's embedding plus the edge weight and, for
// normalization-dependent layers (GCN), the neighbor's degree.
type NeighborMsg struct {
	H     []float64 // neighbor embedding h^{(k-1)}(u)
	W     float64   // edge weight A_vu
	Deg   float64   // neighbor's normalization degree (GCN: weighted in-degree + 1)
	EFeat []float64 // edge features e_vu (nil when the graph has none)
}

// Layer is one GNN layer. Forward/Backward operate on whole batch
// subgraphs via an Aggregator (which encapsulates the adjacency and the
// edge-partitioned parallelism) and the layer's Rows (the zero Rows means
// every row); InferNode computes a single node's output embedding from
// explicit neighbor messages, which is what a GraphInfer reduce round does.
// Forward/Backward draw every temporary from the per-step workspace (nil
// allocates), so one Reset after the optimizer step recycles the whole
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
	// InferNode computes this layer's output for one node: selfH is the
	// node's own input embedding, selfDeg its normalization degree, msgs its
	// in-edge neighbor messages.
	InferNode(selfH []float64, selfDeg float64, msgs []NeighborMsg) []float64
	// Params returns the layer's trainable parameters.
	Params() []*nn.Param
}

// applyActVec applies an activation function to a vector in place using the
// same semantics as nn.Activation (used by InferNode paths).
func applyActVec(kind nn.ActKind, v []float64) {
	a := nn.Activation{Kind: kind}
	m := tensor.FromSlice(1, len(v), v)
	out := a.Forward(nil, m)
	copy(v, out.Data)
}

// ApplyDense computes a dense layer's output for a single row vector
// without touching the layer's forward cache, so concurrent reduce tasks
// can share one prediction slice. Used by GraphInfer's final round.
func ApplyDense(d *nn.Dense, h []float64) []float64 {
	out := make([]float64, d.W.W.Cols)
	copy(out, d.B.W.Row(0))
	for i, v := range h {
		if v == 0 {
			continue
		}
		row := d.W.W.Row(i)
		for j, w := range row {
			out[j] += v * w
		}
	}
	return out
}
