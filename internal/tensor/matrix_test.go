package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matMul allocates and returns a @ b.
func matMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MatMul(dst, a, b)
	return dst
}

// transpose returns a newly allocated mᵀ.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// norm returns the Frobenius norm of m.
func norm(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2)=%v want 5", m.At(1, 2))
	}
	if got := m.Row(1); got[2] != 5 {
		t.Fatalf("Row view broken: %v", got)
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if c.At(0, 0) != 99 {
		t.Fatal("Clone did not copy")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}})
	got := matMul(a, b)
	want := FromRows([][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}})
	if !Equalish(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad inner dims")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

func TestMatMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(5, 4), New(5, 3)
	a.RandFill(rng, 1)
	b.RandFill(rng, 1)
	got := New(4, 3)
	MatMulATB(got, a, b)
	want := matMul(transpose(a), b)
	if !Equalish(got, want, 1e-12) {
		t.Fatalf("ATB mismatch: %v", MaxAbsDiff(got, want))
	}
}

func TestMatMulABTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(5, 4), New(6, 4)
	a.RandFill(rng, 1)
	b.RandFill(rng, 1)
	got := New(5, 6)
	MatMulABT(got, a, b)
	want := matMul(a, transpose(b))
	if !Equalish(got, want, 1e-12) {
		t.Fatalf("ABT mismatch: %v", MaxAbsDiff(got, want))
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("bad transpose: %v", tr)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	dst := New(2, 2)
	Add(dst, a, b)
	if dst.At(1, 1) != 44 {
		t.Fatalf("Add: %v", dst)
	}
	Sub(dst, b, a)
	if dst.At(0, 0) != 9 {
		t.Fatalf("Sub: %v", dst)
	}
	Mul(dst, a, b)
	if dst.At(1, 0) != 90 {
		t.Fatalf("Mul: %v", dst)
	}
	AXPY(dst, 2, a)
	if dst.At(1, 0) != 96 {
		t.Fatalf("AXPY: %v", dst)
	}
	dst.Scale(0.5)
	if dst.At(1, 0) != 48 {
		t.Fatalf("Scale: %v", dst)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVector([]float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVector: %v", m)
	}
	sums := make([]float64, 2)
	m.ColSumsInto(sums)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("ColSums: %v", sums)
	}
}

func TestRowsSubsetAndScatter(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	sub := New(2, 2)
	m.RowsSubsetInto(sub, []int{2, 0})
	if sub.At(0, 0) != 3 || sub.At(1, 0) != 1 {
		t.Fatalf("RowsSubsetInto: %v", sub)
	}
	dst := New(3, 2)
	ScatterRowsAdd(dst, sub, []int{2, 0})
	if dst.At(2, 0) != 3 || dst.At(0, 1) != 1 || dst.At(1, 0) != 0 {
		t.Fatalf("ScatterRowsAdd: %v", dst)
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromRows([][]float64{{0.1, 0.9, 0.2}, {3, 2, 1}})
	am := m.ArgMaxRows()
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgMaxRows: %v", am)
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	c := Concat(a, b)
	if c.Rows != 3 || c.At(2, 1) != 6 {
		t.Fatalf("Concat: %v", c)
	}
	h := ConcatCols(a, FromRows([][]float64{{7, 8, 9}}))
	if h.Cols != 5 || h.At(0, 4) != 9 {
		t.Fatalf("ConcatCols: %v", h)
	}
	s := h.SliceCols(2, 5)
	if s.Cols != 3 || s.At(0, 0) != 7 {
		t.Fatalf("SliceCols: %v", s)
	}
}

func TestGlorotFillBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(50, 60)
	m.GlorotFill(rng)
	limit := math.Sqrt(6.0 / 110.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot out of bounds: %v (limit %v)", v, limit)
		}
	}
	if norm(m) == 0 {
		t.Fatal("Glorot produced all zeros")
	}
}

func TestNormAndDiff(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if math.Abs(norm(m)-5) > 1e-12 {
		t.Fatalf("Norm: %v", norm(m))
	}
	o := FromRows([][]float64{{3, 4.5}})
	if d := MaxAbsDiff(m, o); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("MaxAbsDiff: %v", d)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := New(m, k), New(k, n)
		a.RandFill(r, 2)
		b.RandFill(r, 2)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		return Equalish(lhs, rhs, 1e-10)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := New(m, k)
		b, c := New(k, n), New(k, n)
		a.RandFill(r, 1)
		b.RandFill(r, 1)
		c.RandFill(r, 1)
		bc := New(k, n)
		Add(bc, b, c)
		lhs := matMul(a, bc)
		rhs := New(m, n)
		Add(rhs, matMul(a, b), matMul(a, c))
		return Equalish(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(1+r.Intn(8), 1+r.Intn(8))
		m.RandFill(r, 3)
		return Equalish(m, transpose(transpose(m)), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y := New(128, 128), New(128, 128)
	x.RandFill(rng, 1)
	y.RandFill(rng, 1)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}
