package tensor

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks for the packed, parallel dense engine. The *Serial
// variants pin parallelism to 1 so CI runs surface both the single-thread
// kernel quality and the pool's scaling on whatever cores the runner has.

func benchMats(n, k, m int) (a, b, dst *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a = New(n, k)
	a.RandFill(rng, 1)
	b = New(k, m)
	b.RandFill(rng, 1)
	return a, b, New(n, m)
}

func benchMatMul(b *testing.B, par, n, k, m int) {
	b.Helper()
	defer SetParallelism(SetParallelism(par))
	x, y, dst := benchMats(n, k, m)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * k * m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMul512Serial(b *testing.B)   { benchMatMul(b, 1, 512, 512, 512) }
func BenchmarkMatMul512Parallel(b *testing.B) { benchMatMul(b, 0, 512, 512, 512) }

// The training shape: tall activations against a small weight matrix.
func BenchmarkMatMulTallSerial(b *testing.B)   { benchMatMul(b, 1, 4096, 64, 64) }
func BenchmarkMatMulTallParallel(b *testing.B) { benchMatMul(b, 0, 4096, 64, 64) }

func BenchmarkMatMulATBTall(b *testing.B) {
	defer SetParallelism(SetParallelism(0))
	rng := rand.New(rand.NewSource(2))
	x := New(4096, 64)
	x.RandFill(rng, 1)
	g := New(4096, 64)
	g.RandFill(rng, 1)
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATB(dst, x, g)
	}
}

func BenchmarkMatMulABTTall(b *testing.B) {
	defer SetParallelism(SetParallelism(0))
	rng := rand.New(rand.NewSource(3))
	g := New(4096, 64)
	g.RandFill(rng, 1)
	w := New(64, 64)
	w.RandFill(rng, 1)
	dst := New(4096, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT(dst, g, w)
	}
}

// BenchmarkWorkspaceStep measures the arena's per-step overhead: the Get
// calls of a typical 2-layer train step plus the Reset, against warmed
// free lists.
func BenchmarkWorkspaceStep(b *testing.B) {
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 12; j++ {
			ws.Get(1024, 32)
		}
		ws.Floats(6000)
		ws.Ints(1025)
		ws.Reset()
	}
}

// BenchmarkMatMulTrainShapes times the dense products of a GAT layer's
// training step at 400 batch rows, 256-dim input and hidden 64: the
// forward projection, the weight gradient, and a 64×64 input gradient.
func BenchmarkMatMulTrainShapes(b *testing.B) {
	defer SetParallelism(SetParallelism(0))
	rng := rand.New(rand.NewSource(4))
	mat := func(r, c int) *Matrix {
		m := New(r, c)
		m.RandFill(rng, 1)
		return m
	}
	h, w, dz, w64 := mat(400, 256), mat(256, 64), mat(400, 64), mat(64, 64)
	cases := []struct {
		name      string
		kernel    func(dst, a, b *Matrix)
		dst, x, y *Matrix
	}{
		{"forward_400x256x64", MatMul, New(400, 64), h, w},
		{"atb_dW_256x64", MatMulATB, New(256, 64), h, dz},
		{"abt_400x64x64", MatMulABT, New(400, 64), dz, w64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.kernel(c.dst, c.x, c.y)
			}
		})
	}
}
