package sparse

import (
	"agl/internal/tensor"
)

// Partition describes one edge partition: a contiguous, nnz-balanced range
// of CSR rows. Because rows are destination nodes, every edge with the same
// destination lands in the same partition, so concurrent aggregation threads
// never write the same output row — the paper's edge-partitioning insight.
type Partition struct {
	LoRow, HiRow int // row range [LoRow, HiRow)
	NNZ          int // number of edges covered
}

// PartitionEdges splits m's rows into at most t partitions with roughly
// equal edge counts. Fewer than t partitions are returned when m is small.
func PartitionEdges(m *CSR, t int) []Partition {
	if t < 1 {
		t = 1
	}
	total := m.NNZ()
	if total == 0 || m.NumRows == 0 {
		return []Partition{{LoRow: 0, HiRow: m.NumRows, NNZ: total}}
	}
	target := (total + t - 1) / t
	var parts []Partition
	lo, acc := 0, 0
	for r := 0; r < m.NumRows; r++ {
		acc += m.RowNNZ(r)
		if acc >= target && len(parts) < t-1 {
			parts = append(parts, Partition{LoRow: lo, HiRow: r + 1, NNZ: acc})
			lo, acc = r+1, 0
		}
	}
	parts = append(parts, Partition{LoRow: lo, HiRow: m.NumRows, NNZ: acc})
	return parts
}

// SpMMParallel computes dst = m @ x with one shared-pool task per
// partition. Each partition owns a disjoint set of destination rows, so
// the tasks are conflict-free by construction and the result is
// bit-identical to the serial product.
func (m *CSR) SpMMParallel(dst, x *tensor.Matrix, parts []Partition) {
	m.checkSpMM(dst, x)
	if len(parts) <= 1 {
		m.SpMM(dst, x)
		return
	}
	tensor.ParallelEach(len(parts), func(i int) {
		m.spmmRows(dst, x, parts[i].LoRow, parts[i].HiRow)
	})
}

// Aggregator performs repeated dst = A @ x products over a fixed adjacency,
// optionally with edge partitioning. It owns precomputed partitions for the
// matrix and its transpose so forward and backward aggregation both run
// conflict-free in parallel.
type Aggregator struct {
	A *CSR
	// AT is the transpose adjacency, embedded by value so building an
	// aggregator is a single allocation on the per-batch hot path.
	AT CSR
	// FwdIdx maps each edge of AT back to its index in A's edge arrays, so
	// per-edge state computed during a destination-partitioned forward pass
	// can be read during a source-partitioned backward pass.
	FwdIdx []int
	// EFeat, when non-nil, carries per-edge feature vectors aligned with
	// A's edge arrays (the E_B matrix of AGL's subgraph vectorization).
	// Entries may be nil (e.g. self loops), meaning a zero vector.
	EFeat   [][]float64
	parts   []Partition
	tparts  []Partition
	threads int
}

// NewAggregatorWS builds an Aggregator over a, its transpose arrays drawn
// from a per-batch workspace (nil allocates), so repeated batch
// preparation stops allocating. threads <= 1 disables partitioned
// (parallel) aggregation.
func NewAggregatorWS(ws *tensor.Workspace, a *CSR, threads int) *Aggregator {
	ag := &Aggregator{A: a, threads: threads}
	ag.FwdIdx = a.transposeWithMapIntoWS(ws, &ag.AT)
	if threads > 1 {
		ag.parts = PartitionEdges(ag.A, threads)
		ag.tparts = PartitionEdges(&ag.AT, threads)
	}
	return ag
}

// Threads reports the configured aggregation parallelism.
func (ag *Aggregator) Threads() int { return ag.threads }

// Forward computes dst = A @ x.
func (ag *Aggregator) Forward(dst, x *tensor.Matrix) {
	if ag.threads > 1 {
		ag.A.SpMMParallel(dst, x, ag.parts)
		return
	}
	ag.A.SpMM(dst, x)
}

// Backward computes dst = Aᵀ @ g (the gradient of Forward w.r.t. x).
func (ag *Aggregator) Backward(dst, g *tensor.Matrix) {
	if ag.threads > 1 {
		ag.AT.SpMMParallel(dst, g, ag.tparts)
		return
	}
	ag.AT.SpMM(dst, g)
}

// RangeEdgesParallel invokes fn(lo, hi) for each partition's row range as
// one shared-pool task per partition. It is the generic hook GAT uses for
// per-edge attention computations.
func (ag *Aggregator) RangeEdgesParallel(fn func(loRow, hiRow int)) {
	if ag.threads <= 1 || len(ag.parts) <= 1 {
		fn(0, ag.A.NumRows)
		return
	}
	tensor.ParallelEach(len(ag.parts), func(i int) {
		fn(ag.parts[i].LoRow, ag.parts[i].HiRow)
	})
}

// RangeEdgesParallelT is RangeEdgesParallel over the transpose adjacency.
func (ag *Aggregator) RangeEdgesParallelT(fn func(loRow, hiRow int)) {
	if ag.threads <= 1 || len(ag.tparts) <= 1 {
		fn(0, ag.AT.NumRows)
		return
	}
	tensor.ParallelEach(len(ag.tparts), func(i int) {
		fn(ag.tparts[i].LoRow, ag.tparts[i].HiRow)
	})
}
