// Package sparse implements the compressed sparse row (CSR) kernels used by
// AGL's GNN layers: sparse-dense matrix products, transposes, per-layer edge
// pruning, and the destination-partitioned parallel aggregation the paper
// calls "edge partitioning".
package sparse

import (
	"fmt"
	"math"
	"sort"

	"agl/internal/tensor"
)

// Coo is one coordinate-format entry: an edge from column (source) Col to
// row (destination) Row carrying weight Val. The row/column orientation
// matches the paper's adjacency convention: A[v][u] > 0 means edge u→v, so a
// row gathers a node's in-edges.
type Coo struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. Rows are destination nodes; the
// entries of row v are v's in-edges. Edges within a row are sorted by
// column index so that edge-aligned auxiliary arrays (edge features,
// attention coefficients) are deterministic.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int     // len NumRows+1
	ColIdx           []int     // len NNZ()
	Val              []float64 // len NNZ(); edge weights
}

// NewCSR builds a CSR matrix from coordinate entries. Duplicate (row, col)
// entries have their values summed.
func NewCSR(numRows, numCols int, entries []Coo) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= numRows || e.Col < 0 || e.Col >= numCols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, numRows, numCols))
		}
	}
	sorted := make([]Coo, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	// Merge duplicates.
	out := sorted[:0]
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	m := &CSR{
		NumRows: numRows,
		NumCols: numCols,
		RowPtr:  make([]int, numRows+1),
		ColIdx:  make([]int, len(out)),
		Val:     make([]float64, len(out)),
	}
	for i, e := range out {
		m.RowPtr[e.Row+1]++
		m.ColIdx[i] = e.Col
		m.Val[i] = e.Val
	}
	for r := 0; r < numRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored entries (edges).
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row r as views.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the number of entries in row r.
func (m *CSR) RowNNZ(r int) int { return m.RowPtr[r+1] - m.RowPtr[r] }

// At returns the value at (r, c), or 0 when absent. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	cols, vals := m.Row(r)
	i := sort.SearchInts(cols, c)
	if i < len(cols) && cols[i] == c {
		return vals[i]
	}
	return 0
}

// Entries returns all entries in row-major order.
func (m *CSR) Entries() []Coo {
	out := make([]Coo, 0, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			out = append(out, Coo{Row: r, Col: c, Val: vals[i]})
		}
	}
	return out
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  append([]int(nil), m.RowPtr...),
		ColIdx:  append([]int(nil), m.ColIdx...),
		Val:     append([]float64(nil), m.Val...),
	}
	return c
}

// transposeWithMapIntoWS fills t (a caller-owned struct, typically embedded
// in an Aggregator) with mᵀ and returns the edge map: fwd[i] is the index
// into m's edge arrays of the transpose's i-th edge. GAT's backward pass
// uses the map to read forward-pass attention coefficients while iterating
// source-partitioned (conflict-free) over the transpose.
func (m *CSR) transposeWithMapIntoWS(ws *tensor.Workspace, t *CSR) []int {
	nnz := m.NNZ()
	*t = CSR{
		NumRows: m.NumCols,
		NumCols: m.NumRows,
		RowPtr:  ws.Ints(m.NumCols + 1),
		ColIdx:  ws.Ints(nnz),
		Val:     ws.Floats(nnz),
	}
	fwd := ws.Ints(nnz)
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.NumRows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := ws.Ints(t.NumRows)
	copy(next, t.RowPtr[:t.NumRows])
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		for i := lo; i < hi; i++ {
			c := m.ColIdx[i]
			pos := next[c]
			next[c]++
			t.ColIdx[pos] = r
			t.Val[pos] = m.Val[i]
			fwd[pos] = i
		}
	}
	return fwd
}

// SpMM computes dst = m @ x where x is dense. dst must be m.NumRows×x.Cols.
func (m *CSR) SpMM(dst, x *tensor.Matrix) {
	m.checkSpMM(dst, x)
	m.spmmRows(dst, x, 0, m.NumRows)
}

func (m *CSR) checkSpMM(dst, x *tensor.Matrix) {
	if x.Rows != m.NumCols {
		panic(fmt.Sprintf("sparse: SpMM inner dims %d vs %d", m.NumCols, x.Rows))
	}
	if dst.Rows != m.NumRows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM dst %dx%d want %dx%d", dst.Rows, dst.Cols, m.NumRows, x.Cols))
	}
}

// spmmRows computes rows [lo, hi) of dst = m @ x.
func (m *CSR) spmmRows(dst, x *tensor.Matrix, lo, hi int) {
	n := x.Cols
	for r := lo; r < hi; r++ {
		drow := dst.Row(r)
		for j := range drow {
			drow[j] = 0
		}
		cols, vals := m.Row(r)
		for i, c := range cols {
			tensor.AXPYVec(drow, x.Data[c*n:(c+1)*n], vals[i])
		}
	}
}

// FilterByDistWS keeps edge (v, u) only when dist[v] ∈ [0, maxDst] and
// dist[u] ∈ [0, maxSrc] — the per-layer graph-pruning predicate of the
// paper's §3.3.2, specialized so the training hot path pays no closure.
func (m *CSR) FilterByDistWS(ws *tensor.Workspace, dist []int, maxDst, maxSrc int) *CSR {
	rowPtr := ws.Ints(m.NumRows + 1)
	colIdx := ws.Ints(m.NNZ())
	val := ws.Floats(m.NNZ())
	out := 0
	for r := 0; r < m.NumRows; r++ {
		dv := dist[r]
		rowOK := dv >= 0 && dv <= maxDst
		if rowOK {
			cols, vals := m.Row(r)
			for i, c := range cols {
				if du := dist[c]; du >= 0 && du <= maxSrc {
					colIdx[out] = c
					val[out] = vals[i]
					out++
				}
			}
		}
		rowPtr[r+1] = out
	}
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx[:out], Val: val[:out]}
}

// AddSelfLoops returns a copy of m with weight-w self loops added to every
// row (existing diagonal entries are incremented).
func (m *CSR) AddSelfLoops(w float64) *CSR { return m.AddSelfLoopsWS(nil, w) }

// AddSelfLoopsWS is AddSelfLoops with its edge arrays drawn from ws (nil ws
// allocates). Rows are already column-sorted, so the diagonal is merged in
// a single linear pass instead of a coordinate re-sort.
func (m *CSR) AddSelfLoopsWS(ws *tensor.Workspace, w float64) *CSR {
	diag := m.NumRows
	if m.NumCols < diag {
		diag = m.NumCols
	}
	// Upper bound: one inserted diagonal per eligible row.
	maxNNZ := m.NNZ() + diag
	c := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  ws.Ints(m.NumRows + 1),
		ColIdx:  ws.Ints(maxNNZ),
		Val:     ws.Floats(maxNNZ),
	}
	out := 0
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		placed := r >= diag // rows without a diagonal slot copy verbatim
		for i, col := range cols {
			if !placed && col >= r {
				if col == r {
					c.ColIdx[out] = r
					c.Val[out] = vals[i] + w
					out++
					placed = true
					continue
				}
				c.ColIdx[out] = r
				c.Val[out] = w
				out++
				placed = true
			}
			c.ColIdx[out] = col
			c.Val[out] = vals[i]
			out++
		}
		if !placed {
			c.ColIdx[out] = r
			c.Val[out] = w
			out++
		}
		c.RowPtr[r+1] = out
	}
	c.ColIdx = c.ColIdx[:out]
	c.Val = c.Val[:out]
	return c
}

// RowNormalizeWS returns a copy of m whose rows each sum to 1 (empty rows
// are left empty), its arrays drawn from ws (nil allocates). This realizes
// mean aggregation for GraphSAGE.
func (m *CSR) RowNormalizeWS(ws *tensor.Workspace) *CSR {
	c := m.CloneWS(ws)
	for r := 0; r < c.NumRows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		var sum float64
		for _, v := range c.Val[lo:hi] {
			sum += v
		}
		if sum == 0 {
			continue
		}
		for i := lo; i < hi; i++ {
			c.Val[i] /= sum
		}
	}
	return c
}

// CloneWS is Clone with the copy's arrays drawn from ws.
func (m *CSR) CloneWS(ws *tensor.Workspace) *CSR {
	if ws == nil {
		return m.Clone()
	}
	c := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  ws.Ints(len(m.RowPtr)),
		ColIdx:  ws.Ints(len(m.ColIdx)),
		Val:     ws.Floats(len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// SymNormalizeWithDeg returns D^{-1/2}·(m+I)·D^{-1/2} using externally
// supplied degrees (deg[i] must be node i's weighted in-degree + 1). AGL
// uses this with the global degrees carried inside GraphFeatures so that
// k-hop fragments normalize identically to the full graph.
func SymNormalizeWithDeg(m *CSR, deg []float64) *CSR {
	return SymNormalizeWithDegWS(nil, m, deg)
}

// SymNormalizeWithDegWS is SymNormalizeWithDeg over a workspace.
func SymNormalizeWithDegWS(ws *tensor.Workspace, m *CSR, deg []float64) *CSR {
	if m.NumRows != m.NumCols {
		panic("sparse: SymNormalizeWithDeg requires a square matrix")
	}
	if len(deg) != m.NumRows {
		panic("sparse: SymNormalizeWithDeg degree length mismatch")
	}
	c := m.AddSelfLoopsWS(ws, 1)
	for r := 0; r < c.NumRows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		dr := deg[r]
		if dr <= 0 {
			dr = 1
		}
		for i := lo; i < hi; i++ {
			du := deg[c.ColIdx[i]]
			if du <= 0 {
				du = 1
			}
			c.Val[i] = c.Val[i] / (math.Sqrt(dr) * math.Sqrt(du))
		}
	}
	return c
}

// SymNormalize returns D^{-1/2}·(m+I)·D^{-1/2}, the symmetric normalization
// used by GCN, where D is the degree matrix of m+I. m must be square.
func (m *CSR) SymNormalize() *CSR { return m.SymNormalizeWS(nil) }

// SymNormalizeWS is SymNormalize over a workspace: the self-looped copy is
// fresh, so it is normalized in place instead of cloned again.
func (m *CSR) SymNormalizeWS(ws *tensor.Workspace) *CSR {
	if m.NumRows != m.NumCols {
		panic("sparse: SymNormalize requires a square matrix")
	}
	c := m.AddSelfLoopsWS(ws, 1)
	deg := ws.Floats(c.NumRows)
	for r := 0; r < c.NumRows; r++ {
		_, vals := c.Row(r)
		for _, v := range vals {
			deg[r] += v
		}
	}
	for r := 0; r < c.NumRows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		for i := lo; i < hi; i++ {
			u := c.ColIdx[i]
			dr, du := deg[r], deg[u]
			if dr <= 0 {
				dr = 1
			}
			if du <= 0 {
				du = 1
			}
			c.Val[i] = c.Val[i] / (math.Sqrt(dr) * math.Sqrt(du))
		}
	}
	return c
}
