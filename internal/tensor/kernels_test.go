package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Naive reference kernels: per destination element, ascending-k
// accumulation from +0. The packed dot-product kernel adds every product,
// where the first two references skip a zero a-value; adding a zero product
// can change only the sign of an exactly-zero sum, and == (which the
// comparisons below use) treats +0 and -0 as equal, so the results must be
// equal element for element.

func naiveMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

func naiveMatMulATB(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	p := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

func naiveMatMulABT(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
	return dst
}

// randMat fills a matrix with normal values and exact zeros (the values the
// references skip).
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v want %v (must be bit-identical)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockedKernelsMatchNaive drives the packed kernels over randomized
// shapes — including empty (0-row), single-column, multiples of the
// four-wide pass and ragged remainders — at several parallelism settings,
// asserting bit-identical results against the naive reference.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	rng := rand.New(rand.NewSource(7))
	dims := []int{0, 1, 2, 3, 7, 17, 31, 64, 100, 255, 256, 259}
	pick := func() int { return dims[rng.Intn(len(dims))] }
	for _, par := range []int{1, 2, 3, 8} {
		SetParallelism(par)
		for trial := 0; trial < 60; trial++ {
			m, k, n := pick(), pick(), pick()
			a := randMat(rng, m, k)
			b := randMat(rng, k, n)

			dst := New(m, n)
			dst.Fill(42) // results must not depend on dst's prior contents
			MatMul(dst, a, b)
			sameBits(t, "MatMul", dst, naiveMatMul(a, b))

			bt := randMat(rng, m, n)
			atb := New(k, n)
			atb.Fill(-7)
			MatMulATB(atb, a, bt)
			sameBits(t, "MatMulATB", atb, naiveMatMulATB(a, bt))

			babt := randMat(rng, n, k)
			abt := New(m, n)
			abt.Fill(3.5)
			MatMulABT(abt, a, babt)
			sameBits(t, "MatMulABT", abt, naiveMatMulABT(a, babt))
		}
	}
}

// TestKernelsExplicitEdgeShapes nails the degenerate shapes individually so
// a failure names the offender.
func TestKernelsExplicitEdgeShapes(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	SetParallelism(8)
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ m, k, n int }{
		{0, 5, 4},   // 0 output rows
		{5, 0, 4},   // empty inner dimension: result is all zeros
		{4, 5, 1},   // single output column
		{1, 1, 1},   // scalars
		{3, 257, 2}, // long inner dim, fewer outputs than one four-wide pass
	}
	for _, c := range cases {
		a := randMat(rng, c.m, c.k)
		b := randMat(rng, c.k, c.n)
		dst := New(c.m, c.n)
		MatMul(dst, a, b)
		sameBits(t, "MatMul", dst, naiveMatMul(a, b))

		b2 := randMat(rng, c.m, c.n)
		atb := New(c.k, c.n)
		MatMulATB(atb, a, b2)
		sameBits(t, "MatMulATB", atb, naiveMatMulATB(a, b2))

		b3 := randMat(rng, c.n, c.k)
		abt := New(c.m, c.n)
		MatMulABT(abt, a, b3)
		sameBits(t, "MatMulABT", abt, naiveMatMulABT(a, b3))
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Ragged shapes larger than one transpose tile, in both orientations.
	for _, sh := range [][2]int{{37, 21}, {16, 35}, {50, 16}, {1, 40}} {
		x := randMat(rng, sh[0], sh[1])
		tr := New(sh[1], sh[0])
		tr.Fill(9)
		x.TransposeInto(tr)
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Cols; j++ {
				if tr.At(j, i) != x.At(i, j) {
					t.Fatalf("TransposeInto %dx%d: (%d,%d) = %v want %v", x.Rows, x.Cols, j, i, tr.At(j, i), x.At(i, j))
				}
			}
		}
	}

	m := randMat(rng, 7, 5)
	idx := []int{3, 0, 6, 3}
	sub := New(len(idx), 5)
	m.RowsSubsetInto(sub, idx)
	for k, r := range idx {
		if !slices.Equal(sub.Row(k), m.Row(r)) {
			t.Fatalf("RowsSubsetInto row %d = %v want row %d %v", k, sub.Row(k), r, m.Row(r))
		}
	}

	sums := make([]float64, 5)
	m.ColSumsInto(sums)
	for j := range sums {
		var v float64
		for i := range m.Rows {
			v += m.At(i, j)
		}
		if sums[j] != v {
			t.Fatalf("ColSumsInto[%d] = %v want %v", j, sums[j], v)
		}
	}

	o := randMat(rng, 7, 3)
	cc := New(7, 8)
	ConcatColsInto(cc, m, o)
	sameBits(t, "ConcatColsInto", cc, ConcatCols(m, o))

	sl := New(7, 2)
	m.SliceColsInto(sl, 1, 3)
	sameBits(t, "SliceColsInto", sl, m.SliceCols(1, 3))
}

// fuzzValue maps two bytes to a float64: +0, -0, subnormals, or normal
// values of mixed sign and magnitude. Every product of two such values, and
// every sum of up to 300 of them, stays finite.
func fuzzValue(x, y byte) float64 {
	switch x % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(int8(y)) * math.SmallestNonzeroFloat64
	case 3:
		return float64(int8(y)) * 0x1p-1030
	default:
		return float64(int8(y)) * math.Ldexp(1, int(x>>3)-16)
	}
}

// fuzzMat fills a rows×cols matrix from vals, cycling through its bytes two
// at a time (an empty vals gives all zeros).
func fuzzMat(vals []byte, salt byte, rows, cols int) *Matrix {
	m := New(rows, cols)
	if len(vals) < 2 {
		return m
	}
	for i := range m.Data {
		p := 2 * i % (len(vals) - 1)
		m.Data[i] = fuzzValue(vals[p], vals[p+1]^byte(i)^salt)
	}
	return m
}

// fuzzRows picks the row list of a row-subset product over n rows: nil,
// empty, every row listed, or an ascending subset chosen by vals.
func fuzzRows(mode uint16, vals []byte, n int) []int {
	switch mode % 4 {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	rows := []int{}
	for i := 0; i < n; i++ {
		if mode%4 == 2 || (len(vals) > 0 && (vals[i%len(vals)]^byte(i*7))&1 == 1) {
			rows = append(rows, i)
		}
	}
	return rows
}

// sameListedRows checks that got equals want on the listed rows (every row
// when rows is nil) and still holds fill everywhere else.
func sameListedRows(t *testing.T, name string, got, want *Matrix, rows []int, fill float64) {
	t.Helper()
	listed := make([]bool, got.Rows)
	for i := range listed {
		listed[i] = rows == nil
	}
	for _, r := range rows {
		listed[r] = true
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			w := fill
			if listed[i] {
				w = want.At(i, j)
			}
			if got.At(i, j) != w {
				t.Fatalf("%s rows %v: (%d,%d) = %v want %v (must be bit-identical)", name, rows, i, j, got.At(i, j), w)
			}
		}
	}
}

// FuzzMatMulMatchesNaive checks all three packed kernels, and their
// row-subset forms, against the naive references with == at parallelism 1
// and 3, over shapes 0–300 and values that include zeros of both signs and
// subnormals. m16/301 picks the row list: none, empty, full or a subset.
func FuzzMatMulMatchesNaive(f *testing.F) {
	f.Add(uint16(4), uint16(5), uint16(3), []byte{4, 9, 0, 1, 1, 7, 2, 200, 3, 5, 77, 13})
	f.Add(uint16(0), uint16(7), uint16(2), []byte{})
	f.Add(uint16(9), uint16(0), uint16(5), []byte{8, 8})
	f.Add(uint16(17), uint16(33), uint16(9), []byte{1, 0, 2, 1, 3, 255, 0, 0, 250, 3})
	f.Add(uint16(40), uint16(256), uint16(64), []byte{12, 100, 77, 3, 9, 9, 130, 41})
	f.Add(uint16(301+6), uint16(5), uint16(4), []byte{3, 1, 4, 1, 5, 9})
	f.Add(uint16(2*301+17), uint16(33), uint16(9), []byte{1, 0, 2, 1, 3, 255, 0, 0, 250, 3})
	f.Add(uint16(3*301+40), uint16(256), uint16(64), []byte{12, 100, 77, 3, 9, 9, 130, 41})
	f.Add(uint16(3*301+163), uint16(64), uint16(64), []byte{7, 21, 0, 1, 96, 5, 8})
	f.Add(uint16(3*301+1), uint16(3), uint16(2), []byte{0})
	f.Fuzz(func(t *testing.T, m16, k16, n16 uint16, vals []byte) {
		m, k, n := int(m16%301), int(k16%301), int(n16%301)
		a := fuzzMat(vals, 0, m, k)
		b := fuzzMat(vals, 1, k, n)
		g := fuzzMat(vals, 2, m, n)
		bt := fuzzMat(vals, 3, n, k)
		rows := fuzzRows(m16/301, vals, m)
		wantAB, wantABT := naiveMatMul(a, b), naiveMatMulABT(a, bt)
		wantATB := naiveMatMulATB(a, g)
		if rows != nil {
			as, gs := New(len(rows), a.Cols), New(len(rows), g.Cols)
			a.RowsSubsetInto(as, rows)
			g.RowsSubsetInto(gs, rows)
			wantATB = naiveMatMulATB(as, gs)
		}
		defer SetParallelism(SetParallelism(0))
		for _, par := range []int{1, 3} {
			SetParallelism(par)
			dst := New(m, n)
			dst.Fill(42)
			MatMulRows(dst, a, b, rows)
			sameListedRows(t, "MatMulRows", dst, wantAB, rows, 42)
			atb := New(k, n)
			atb.Fill(-7)
			MatMulATBRows(atb, a, g, rows)
			sameBits(t, "MatMulATBRows", atb, wantATB)
			abt := New(m, n)
			abt.Fill(3.5)
			MatMulABTRows(abt, a, bt, rows)
			sameListedRows(t, "MatMulABTRows", abt, wantABT, rows, 3.5)
			if rows != nil {
				continue
			}
			dst.Fill(42)
			MatMul(dst, a, b)
			sameBits(t, "MatMul", dst, wantAB)
			atb.Fill(-7)
			MatMulATB(atb, a, g)
			sameBits(t, "MatMulATB", atb, wantATB)
			abt.Fill(3.5)
			MatMulABT(abt, a, bt)
			sameBits(t, "MatMulABT", abt, wantABT)
		}
	})
}
