// Package tensor provides the dense linear-algebra kernels that underpin the
// neural-network substrate of AGL. Matrices are row-major float64; all
// operations are written against flat slices and allocate nothing beyond
// their destination. Every dense product runs one packed dot-product
// kernel (see MatMul).
package tensor

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sync"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (len rows*cols) as a rows×cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying each row of rows; all rows must have
// equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d (%d vs %d)", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	limit := m.Rows
	if limit > 4 {
		limit = 4
	}
	for i := 0; i < limit; i++ {
		s += fmt.Sprintf("%v;", m.Row(i))
	}
	if limit < m.Rows {
		s += "..."
	}
	return s + "]"
}

// GlorotFill fills m with Glorot/Xavier-uniform values using rng, suitable
// for fanIn×fanOut weight matrices.
func (m *Matrix) GlorotFill(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// RandFill fills m with uniform values in [-scale, scale).
func (m *Matrix) RandFill(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// matmulGrain returns the number of destination rows per parallel task so
// each task carries enough arithmetic (~64k multiply-adds) to amortize
// scheduling. work is the per-row flop count.
func matmulGrain(work int) int {
	if work < 1 {
		work = 1
	}
	g := 65536 / work
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes dst = a @ b. dst must be a.Rows×b.Cols and distinct from
// both operands.
//
// MatMul, MatMulATB and MatMulABT run one kernel, dotRows: every
// destination element is a dot product of two contiguous rows, started at
// +0 and accumulated one product at a time in ascending k. MatMul and
// MatMulATB first pack the operands that are not row-contiguous along k
// into pooled transposes. Work is row-partitioned across the shared worker
// pool; each destination row is owned by exactly one worker, so results
// are bit-identical at any parallelism setting.
func MatMul(dst, a, b *Matrix) { MatMulRows(dst, a, b, nil) }

// MatMulRows is MatMul over the listed rows only: it computes row i of
// dst = a @ b for each i in rows and leaves every other row of dst as it
// was. rows must be ascending; nil means every row. Each computed row is
// MatMul's bit for bit.
func MatMulRows(dst, a, b *Matrix, rows []int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	bt := packT(b, nil)
	dotRows(dst, a, bt, rows)
	packPool.Put(bt)
}

// AXPYVec computes dst[j] += a*src[j] over len(src) elements — the
// exported row primitive shared with the sparse kernels. A 4-wide unroll;
// distinct elements accumulate independently, so the unroll cannot change
// any element's rounding.
func AXPYVec(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		dst[j] += a * src[j]
		dst[j+1] += a * src[j+1]
		dst[j+2] += a * src[j+2]
		dst[j+3] += a * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += a * src[j]
	}
}

// MatMulATB computes dst = aᵀ @ b. a is m×n, b is m×p, dst must be n×p.
func MatMulATB(dst, a, b *Matrix) { MatMulATBRows(dst, a, b, nil) }

// MatMulATBRows computes dst = a[rows]ᵀ @ b[rows]: the sum runs over the
// listed rows of the shared m dimension only, which are the only ones
// packed. rows must be ascending; nil means every row. Each element is
// still summed from +0 in ascending row order, so when every unlisted row
// of a or b is zero the result is MatMulATB's bit for bit: a sum started
// at +0 is unchanged by adding a zero product, whatever its sign.
func MatMulATBRows(dst, a, b *Matrix, rows []int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB outer dims %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	at, bt := packT(a, rows), packT(b, rows)
	dotRows(dst, at, bt, nil)
	packPool.Put(at)
	packPool.Put(bt)
}

// MatMulABT computes dst = a @ bᵀ. a is m×n, b is p×n, dst must be m×p.
// Both operands are already row-contiguous along n, so nothing is packed.
func MatMulABT(dst, a, b *Matrix) { MatMulABTRows(dst, a, b, nil) }

// MatMulABTRows is MatMulABT over the listed rows only, as MatMulRows is
// MatMul's: rows of dst not in rows are left as they were.
func MatMulABTRows(dst, a, b *Matrix, rows []int) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	dotRows(dst, a, b, rows)
}

// packPool recycles the transposed copies MatMul and MatMulATB pack, so a
// warm training step allocates none.
var packPool = sync.Pool{New: func() any { return new(Matrix) }}

// packT returns the transpose of m's listed rows (all of m when rows is
// nil) in a pooled matrix; the caller returns it with packPool.Put once the
// product is done.
func packT(m *Matrix, rows []int) *Matrix {
	t := packPool.Get().(*Matrix)
	r := m.Rows
	if rows != nil {
		r = len(rows)
	}
	n := r * m.Cols
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	}
	t.Rows, t.Cols, t.Data = m.Cols, r, t.Data[:n]
	if rows == nil {
		m.TransposeInto(t)
	} else {
		m.transposeRowsInto(t, rows)
	}
	return t
}

// dotRows computes the listed rows (every row when rows is nil) of
// dst = a @ bᵀ over the shared worker pool.
func dotRows(dst, a, b *Matrix, rows []int) {
	n := a.Rows
	if rows != nil {
		n = len(rows)
	}
	chunks, size := jobChunks(n, matmulGrain(a.Cols*b.Rows))
	if chunks <= 1 {
		dotRowsRange(dst, a, b, rows, 0, n)
		return
	}
	dispatch(&poolJob{kind: kindDot, dst: dst, a: a, b: b, rows: rows, n: n, size: size, chunks: chunks})
}

// dotRowsRange computes destination rows rows[lo:hi] (rows [lo, hi) when
// rows is nil) of dst = a @ bᵀ. Four dot products run fused per pass so
// each streamed row of a is reused fourfold; every dot still accumulates
// its own sum in ascending-k order, so results match the one-at-a-time
// reference bit for bit.
func dotRowsRange(dst, a, b *Matrix, rows []int, lo, hi int) {
	n := a.Cols
	for x := lo; x < hi; x++ {
		i := x
		if rows != nil {
			i = rows[x]
		}
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			// Slicing each row to len(arow) lets the compiler drop the
			// bounds checks in the inner loop.
			b0 := b.Data[j*n:][:len(arow)]
			b1 := b.Data[(j+1)*n:][:len(arow)]
			b2 := b.Data[(j+2)*n:][:len(arow)]
			b3 := b.Data[(j+3)*n:][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*n:][:len(arow)]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// transposeTile is the block edge of TransposeInto. Within a block every
// destination row segment is written contiguously while the source column
// it reads stays within transposeTile cache-resident rows, so neither side
// strides the whole matrix per element.
const transposeTile = 16

// TransposeInto writes mᵀ into dst (m.Cols×m.Rows), which must not alias m.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for i0 := 0; i0 < m.Rows; i0 += transposeTile {
		i1 := min(i0+transposeTile, m.Rows)
		for j0 := 0; j0 < m.Cols; j0 += transposeTile {
			for j := j0; j < min(j0+transposeTile, m.Cols); j++ {
				drow := dst.Data[j*m.Rows+i0 : j*m.Rows+i1]
				src := m.Data[i0*m.Cols+j:]
				for k := range drow {
					drow[k] = src[k*m.Cols]
				}
			}
		}
	}
}

// transposeRowsInto writes the transpose of m's listed rows into dst
// (m.Cols×len(rows)), tiled as TransposeInto is.
func (m *Matrix) transposeRowsInto(dst *Matrix, rows []int) {
	r := len(rows)
	for i0 := 0; i0 < r; i0 += transposeTile {
		i1 := min(i0+transposeTile, r)
		for j0 := 0; j0 < m.Cols; j0 += transposeTile {
			for j := j0; j < min(j0+transposeTile, m.Cols); j++ {
				drow := dst.Data[j*r+i0 : j*r+i1]
				for k, src := range rows[i0:i1] {
					drow[k] = m.Data[src*m.Cols+j]
				}
			}
		}
	}
}

// Add computes dst = a + b elementwise; dst may alias a or b.
func Add(dst, a, b *Matrix) {
	a.mustSameShape(b, "Add")
	a.mustSameShape(dst, "Add")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise; dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	a.mustSameShape(b, "Sub")
	a.mustSameShape(dst, "Sub")
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// Mul computes dst = a ⊙ b (Hadamard); dst may alias a or b.
func Mul(dst, a, b *Matrix) {
	a.mustSameShape(b, "Mul")
	a.mustSameShape(dst, "Mul")
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// AXPY computes dst += alpha * x.
func AXPY(dst *Matrix, alpha float64, x *Matrix) {
	dst.mustSameShape(x, "AXPY")
	for i, v := range x.Data {
		dst.Data[i] += alpha * v
	}
}

// Scale multiplies every element of m by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddRowVector adds vec to every row of m in place (broadcast add).
func (m *Matrix) AddRowVector(vec []float64) {
	if len(vec) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d want %d", len(vec), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range vec {
			row[j] += v
		}
	}
}

// ColSumsInto accumulates the per-column sums of m into out (len m.Cols),
// which the caller must have zeroed (or be accumulating into, as the bias
// gradients do).
func (m *Matrix) ColSumsInto(out []float64) { m.ColSumsRowsInto(out, nil) }

// ColSumsRowsInto is ColSumsInto over the listed rows only (ascending; nil
// means every row). No other row of m is read.
func (m *Matrix) ColSumsRowsInto(out []float64, rows []int) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto len %d want %d", len(out), m.Cols))
	}
	for i := range EachRow(m.Rows, rows) {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
}

// EachRow yields the listed rows in order, or every row in [0, n) when rows
// is nil: the row loop of every row-subset operation.
func EachRow(n int, rows []int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if rows != nil {
			for _, r := range rows {
				if !yield(r) {
					return
				}
			}
			return
		}
		for r := 0; r < n; r++ {
			if !yield(r) {
				return
			}
		}
	}
}

// RowsSubsetInto copies the given rows of m, in order, into dst
// (len(idx)×m.Cols).
func (m *Matrix) RowsSubsetInto(dst *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: RowsSubsetInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// ScatterRowsAdd adds each row of src into dst at destination row idx[i].
func ScatterRowsAdd(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		panic("tensor: ScatterRowsAdd shape mismatch")
	}
	for i, r := range idx {
		drow := dst.Row(r)
		srow := src.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|; useful in tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	a.mustSameShape(b, "MaxAbsDiff")
	var d float64
	for i, v := range a.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// Equalish reports whether every element of a and b differs by at most tol.
func Equalish(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// ArgMaxRows returns, for each row, the index of its maximum element.
func (m *Matrix) ArgMaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// Concat stacks matrices vertically (they must share Cols).
func Concat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("tensor: Concat column mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out
}

// ConcatCols stacks matrices horizontally (they must share Rows).
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := New(rows, cols)
	ConcatColsInto(out, ms...)
	return out
}

// ConcatColsInto stacks matrices horizontally into dst, which must be
// rows×Σcols.
func ConcatColsInto(dst *Matrix, ms ...*Matrix) {
	rows, cols := 0, 0
	if len(ms) > 0 {
		rows = ms[0].Rows
	}
	for _, m := range ms {
		if m.Rows != rows {
			panic("tensor: ConcatCols row mismatch")
		}
		cols += m.Cols
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: ConcatColsInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, rows, cols))
	}
	for i := 0; i < rows; i++ {
		drow := dst.Row(i)
		off := 0
		for _, m := range ms {
			copy(drow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
}

// SliceCols returns a copy of columns [lo, hi) of m.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	m.SliceColsInto(out, lo, hi)
	return out
}

// SliceColsInto copies columns [lo, hi) of m into dst (m.Rows×(hi-lo)).
func (m *Matrix) SliceColsInto(dst *Matrix, lo, hi int) {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d", lo, hi, m.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != hi-lo {
		panic(fmt.Sprintf("tensor: SliceColsInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, m.Rows, hi-lo))
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[lo:hi])
	}
}
