package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agl/internal/tensor"
)

// transpose returns mᵀ, the reference for backpropagating through an
// aggregation: if Y = A·X then ∂L/∂X = Aᵀ·∂L/∂Y.
func transpose(m *CSR) *CSR {
	nnz := m.NNZ()
	t := &CSR{
		NumRows: m.NumCols,
		NumCols: m.NumRows,
		RowPtr:  make([]int, m.NumCols+1),
		ColIdx:  make([]int, nnz),
		Val:     make([]float64, nnz),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.NumRows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := append([]int(nil), t.RowPtr...)
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			pos := next[c]
			next[c]++
			t.ColIdx[pos] = r
			t.Val[pos] = vals[i]
		}
	}
	return t
}

// filterEdges builds a new CSR keeping only entries for which keep returns
// true. The dimensions are unchanged: dropped rows simply become empty.
func filterEdges(m *CSR, keep func(row, col int) bool) *CSR {
	rowPtr := make([]int, m.NumRows+1)
	colIdx := make([]int, m.NNZ())
	val := make([]float64, m.NNZ())
	out := 0
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			if keep(r, c) {
				colIdx[out] = c
				val[out] = vals[i]
				out++
			}
		}
		rowPtr[r+1] = out
	}
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx[:out], Val: val[:out]}
}

// newAggregator builds an Aggregator over a with allocated arrays.
func newAggregator(a *CSR, threads int) *Aggregator { return NewAggregatorWS(nil, a, threads) }

// spmm allocates and returns m @ x.
func spmm(m *CSR, x *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(m.NumRows, x.Cols)
	m.SpMM(dst, x)
	return dst
}

func smallCSR() *CSR {
	// 4 nodes: edges (dst,src): 0<-1, 0<-2, 1<-2, 2<-3, 3<-0
	return NewCSR(4, 4, []Coo{
		{0, 1, 1}, {0, 2, 2}, {1, 2, 3}, {2, 3, 4}, {3, 0, 5},
	})
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var es []Coo
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				es = append(es, Coo{r, c, rng.NormFloat64()})
			}
		}
	}
	return NewCSR(rows, cols, es)
}

func TestNewCSRBasics(t *testing.T) {
	m := smallCSR()
	if m.NNZ() != 5 {
		t.Fatalf("NNZ=%d", m.NNZ())
	}
	if m.At(0, 2) != 2 || m.At(2, 3) != 4 || m.At(1, 1) != 0 {
		t.Fatalf("At values wrong")
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || vals[1] != 2 {
		t.Fatalf("Row(0)=%v %v", cols, vals)
	}
	if m.RowNNZ(3) != 1 {
		t.Fatalf("RowNNZ(3)=%d", m.RowNNZ(3))
	}
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, 2, []Coo{{0, 1, 1}, {0, 1, 2.5}})
	if m.NNZ() != 1 || m.At(0, 1) != 3.5 {
		t.Fatalf("duplicates not merged: nnz=%d val=%v", m.NNZ(), m.At(0, 1))
	}
}

func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []Coo{{2, 0, 1}})
}

func TestEntriesRoundTrip(t *testing.T) {
	m := smallCSR()
	m2 := NewCSR(m.NumRows, m.NumCols, m.Entries())
	if m2.NNZ() != m.NNZ() {
		t.Fatal("entries round trip lost edges")
	}
	for _, e := range m.Entries() {
		if m2.At(e.Row, e.Col) != e.Val {
			t.Fatalf("mismatch at (%d,%d)", e.Row, e.Col)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := smallCSR()
	mt := transpose(m)
	for _, e := range m.Entries() {
		if mt.At(e.Col, e.Row) != e.Val {
			t.Fatalf("transpose missing (%d,%d)", e.Col, e.Row)
		}
	}
	if mt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed nnz")
	}
}

func TestSpMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 9, 7, 0.3)
	x := tensor.New(7, 5)
	x.RandFill(rng, 1)
	got := spmm(m, x)

	dense := tensor.New(9, 7)
	for _, e := range m.Entries() {
		dense.Set(e.Row, e.Col, e.Val)
	}
	want := tensor.New(9, 5)
	tensor.MatMul(want, dense, x)
	if !tensor.Equalish(got, want, 1e-12) {
		t.Fatalf("SpMM differs from dense by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestSpMMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 64, 64, 0.1)
	x := tensor.New(64, 16)
	x.RandFill(rng, 1)
	want := spmm(m, x)
	for _, threads := range []int{1, 2, 3, 8, 100} {
		parts := PartitionEdges(m, threads)
		got := tensor.New(64, 16)
		m.SpMMParallel(got, x, parts)
		if !tensor.Equalish(got, want, 1e-12) {
			t.Fatalf("threads=%d mismatch", threads)
		}
	}
}

func TestPartitionEdgesCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomCSR(rng, 33, 33, 0.2)
	for _, threads := range []int{1, 2, 5, 16, 64} {
		parts := PartitionEdges(m, threads)
		if len(parts) > threads {
			t.Fatalf("too many partitions: %d > %d", len(parts), threads)
		}
		row := 0
		nnz := 0
		for _, p := range parts {
			if p.LoRow != row {
				t.Fatalf("gap: partition starts at %d want %d", p.LoRow, row)
			}
			row = p.HiRow
			nnz += p.NNZ
		}
		if row != m.NumRows {
			t.Fatalf("rows not covered: %d != %d", row, m.NumRows)
		}
		if nnz != m.NNZ() {
			t.Fatalf("nnz not covered: %d != %d", nnz, m.NNZ())
		}
	}
}

func TestPartitionEdgesBalance(t *testing.T) {
	// A skewed matrix: one hub row with many edges.
	var es []Coo
	for c := 0; c < 100; c++ {
		es = append(es, Coo{0, c, 1})
	}
	for r := 1; r < 50; r++ {
		es = append(es, Coo{r, (r * 3) % 100, 1})
	}
	m := NewCSR(50, 100, es)
	parts := PartitionEdges(m, 4)
	// The hub row cannot be split (destination-partitioned), so partition 0
	// holds >= 100 edges; remaining partitions share the rest.
	if parts[0].NNZ < 100 {
		t.Fatalf("hub row split across partitions: %+v", parts)
	}
}

func TestFilterEdges(t *testing.T) {
	m := smallCSR()
	f := filterEdges(m, func(row, col int) bool { return row != 0 })
	if f.NNZ() != 3 || f.RowNNZ(0) != 0 || f.At(1, 2) != 3 {
		t.Fatalf("FilterEdges wrong: nnz=%d", f.NNZ())
	}
	if f.NumRows != m.NumRows || f.NumCols != m.NumCols {
		t.Fatal("FilterEdges changed dims")
	}
}

func TestAddSelfLoops(t *testing.T) {
	m := smallCSR()
	s := m.AddSelfLoops(1)
	if s.NNZ() != m.NNZ()+4 {
		t.Fatalf("NNZ=%d", s.NNZ())
	}
	for i := 0; i < 4; i++ {
		if s.At(i, i) != 1 {
			t.Fatalf("missing self loop %d", i)
		}
	}
	// Incrementing an existing diagonal.
	d := NewCSR(2, 2, []Coo{{0, 0, 2}})
	if d.AddSelfLoops(1).At(0, 0) != 3 {
		t.Fatal("self loop not merged with existing diagonal")
	}
}

func TestRowNormalize(t *testing.T) {
	m := smallCSR().RowNormalizeWS(nil)
	for r := 0; r < m.NumRows; r++ {
		_, vals := m.Row(r)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if len(vals) > 0 && math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestSymNormalize(t *testing.T) {
	// Unweighted path graph 0-1-2 (both directions).
	m := NewCSR(3, 3, []Coo{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}})
	s := m.SymNormalize()
	// With self loops, deg = [2,3,2]; Â_01 = 1/sqrt(2*3).
	want := 1 / math.Sqrt(6)
	if math.Abs(s.At(0, 1)-want) > 1e-12 {
		t.Fatalf("Â_01=%v want %v", s.At(0, 1), want)
	}
	if math.Abs(s.At(1, 1)-1.0/3.0) > 1e-12 {
		t.Fatalf("Â_11=%v want 1/3", s.At(1, 1))
	}
}

func TestSymNormalizeWithDegMatchesSymNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randomCSR(rng, 12, 12, 0.3)
	// Make weights positive so degrees are well-defined.
	for i := range m.Val {
		if m.Val[i] < 0 {
			m.Val[i] = -m.Val[i]
		}
	}
	// deg[i] = weighted in-degree + 1, the same convention SymNormalize
	// derives internally from m+I.
	deg := make([]float64, m.NumRows)
	for r := 0; r < m.NumRows; r++ {
		_, vals := m.Row(r)
		d := 1.0
		for _, v := range vals {
			d += v
		}
		deg[r] = d
	}
	a := m.SymNormalize()
	b := SymNormalizeWithDeg(m, deg)
	if a.NNZ() != b.NNZ() {
		t.Fatalf("nnz %d vs %d", a.NNZ(), b.NNZ())
	}
	for _, e := range a.Entries() {
		if math.Abs(b.At(e.Row, e.Col)-e.Val) > 1e-12 {
			t.Fatalf("(%d,%d): %v vs %v", e.Row, e.Col, b.At(e.Row, e.Col), e.Val)
		}
	}
}

func TestSymNormalizeWithDegValidation(t *testing.T) {
	m := smallCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on degree length mismatch")
		}
	}()
	SymNormalizeWithDeg(m, []float64{1})
}

func TestAggregatorForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randomCSR(rng, 20, 20, 0.2)
	x := tensor.New(20, 6)
	x.RandFill(rng, 1)
	for _, threads := range []int{1, 4} {
		ag := newAggregator(m, threads)
		fwd := tensor.New(20, 6)
		ag.Forward(fwd, x)
		if !tensor.Equalish(fwd, spmm(m, x), 1e-12) {
			t.Fatalf("Forward mismatch threads=%d", threads)
		}
		bwd := tensor.New(20, 6)
		ag.Backward(bwd, x)
		if !tensor.Equalish(bwd, spmm(transpose(m), x), 1e-12) {
			t.Fatalf("Backward mismatch threads=%d", threads)
		}
	}
}

func TestRangeEdgesParallelCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 40, 40, 0.1)
	ag := newAggregator(m, 4)
	covered := make([]bool, 40)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	ag.RangeEdgesParallel(func(lo, hi int) {
		<-mu
		for r := lo; r < hi; r++ {
			if covered[r] {
				mu <- struct{}{}
				t.Errorf("row %d covered twice", r)
				return
			}
			covered[r] = true
		}
		mu <- struct{}{}
	})
	for r, ok := range covered {
		if !ok {
			t.Fatalf("row %d not covered", r)
		}
	}
}

// Property: (Aᵀ)ᵀ == A.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.3)
		tt := transpose(transpose(m))
		if tt.NNZ() != m.NNZ() {
			return false
		}
		for _, e := range m.Entries() {
			if tt.At(e.Row, e.Col) != e.Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpMM linearity — A(x+y) == Ax + Ay.
func TestSpMMLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, feat := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(6)
		m := randomCSR(rng, rows, cols, 0.4)
		x, y := tensor.New(cols, feat), tensor.New(cols, feat)
		x.RandFill(rng, 1)
		y.RandFill(rng, 1)
		xy := tensor.New(cols, feat)
		tensor.Add(xy, x, y)
		lhs := spmm(m, xy)
		rhs := tensor.New(rows, feat)
		tensor.Add(rhs, spmm(m, x), spmm(m, y))
		return tensor.Equalish(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpMMSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 2000, 2000, 0.005)
	x := tensor.New(2000, 64)
	x.RandFill(rng, 1)
	dst := tensor.New(2000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SpMM(dst, x)
	}
}

func BenchmarkSpMMPartitioned8(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 2000, 2000, 0.005)
	x := tensor.New(2000, 64)
	x.RandFill(rng, 1)
	dst := tensor.New(2000, 64)
	parts := PartitionEdges(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SpMMParallel(dst, x, parts)
	}
}

// BenchmarkPrepareWS measures the per-batch adjacency pipeline the trainer
// runs before every step — symmetric normalization plus aggregator (and
// transpose) construction — against a warmed workspace.
func BenchmarkPrepareWS(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 2000, 2000, 0.005)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		norm := m.SymNormalizeWS(ws)
		NewAggregatorWS(ws, norm, 0)
		ws.Reset()
	}
}

// BenchmarkPrepareAlloc is BenchmarkPrepareWS without the workspace — the
// engine's pre-overhaul behavior, kept for before/after comparison.
func BenchmarkPrepareAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 2000, 2000, 0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		norm := m.SymNormalize()
		newAggregator(norm, 0)
	}
}
