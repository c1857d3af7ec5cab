package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// parallelFor splits [0, n) into contiguous chunks of at least grain
// elements and runs fn over them on the shared pool through ParallelEach.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	chunks, size := jobChunks(n, grain)
	ParallelEach(int(chunks), func(c int) { fn(c*size, min((c+1)*size, n)) })
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		for _, n := range []int{0, 1, 5, 97, 1024} {
			var mu sync.Mutex
			hits := make([]int, n)
			parallelFor(n, 3, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("par=%d n=%d: index %d visited %d times", par, n, i, h)
				}
			}
		}
	}
}

func TestParallelForNested(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	SetParallelism(4)
	// Nested parallel sections must complete (inline-help fallback keeps
	// the pool deadlock-free even when tasks submit subtasks).
	var mu sync.Mutex
	total := 0
	parallelFor(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parallelFor(16, 1, func(l, h int) {
				mu.Lock()
				total += h - l
				mu.Unlock()
			})
		}
	})
	if total != 8*16 {
		t.Fatalf("nested total = %d want %d", total, 8*16)
	}
}

// TestPoolStress hammers the shared pool from many goroutines running
// real kernels while another goroutine flips the parallelism setting.
// Run with -race: it is the regression test for the pool's memory model
// (results are checked for correctness too — every kernel call must stay
// bit-identical to the serial reference regardless of contention).
func TestPoolStress(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 64, 48)
	b := randMat(rng, 48, 32)
	want := naiveMatMul(a, b)

	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetParallelism(1 + i%8)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(64, 32)
			atb := New(48, 32)
			for iter := 0; iter < 200; iter++ {
				MatMul(dst, a, b)
				if dst.Data[0] != want.Data[0] || dst.Data[len(dst.Data)-1] != want.Data[len(want.Data)-1] {
					t.Error("MatMul result corrupted under contention")
					return
				}
				MatMulATB(atb, a, dst)
			}
		}()
	}
	wg.Wait()
	close(stop)
	flip.Wait()
}

func TestWorkspaceReuseAndZeroing(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(4, 8)
	m1.Fill(3)
	f1 := ws.Floats(16)
	f1[0] = 9
	i1 := ws.Ints(5)
	i1[4] = 7
	ws.Reset()

	m2 := ws.Get(2, 6) // smaller: must reuse m1's buffer, resliced + zeroed
	if &m2.Data[0] != &m1.Data[0] {
		t.Fatal("workspace did not recycle the matrix buffer")
	}
	if m2.Rows != 2 || m2.Cols != 6 || len(m2.Data) != 12 {
		t.Fatalf("recycled matrix has shape %dx%d len %d", m2.Rows, m2.Cols, len(m2.Data))
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("recycled matrix not zeroed")
		}
	}
	f2 := ws.Floats(10)
	if &f2[0] != &f1[0] {
		t.Fatal("workspace did not recycle the float buffer")
	}
	if f2[0] != 0 {
		t.Fatal("recycled floats not zeroed")
	}
	i2 := ws.Ints(5)
	if &i2[0] != &i1[0] || i2[4] != 0 {
		t.Fatal("workspace did not recycle+zero the int buffer")
	}

	gets, misses := ws.Stats()
	if gets != 6 || misses != 3 {
		t.Fatalf("stats gets=%d misses=%d want 6/3", gets, misses)
	}

	// Requests larger than anything free must allocate fresh.
	m3 := ws.Get(100, 100)
	if len(m3.Data) != 10000 {
		t.Fatal("oversized request mis-sized")
	}
}

func TestNilWorkspaceFallsBack(t *testing.T) {
	var ws *Workspace
	m := ws.Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatal("nil workspace Get failed")
	}
	if len(ws.Floats(7)) != 7 || len(ws.Ints(2)) != 2 {
		t.Fatal("nil workspace slices failed")
	}
	ws.Reset() // must not panic
	if g, m := ws.Stats(); g != 0 || m != 0 {
		t.Fatal("nil workspace stats non-zero")
	}
}
