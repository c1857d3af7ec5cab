package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared worker pool behind every parallel kernel
// in the engine: the dense matmuls, sparse.Aggregator's
// edge-partitioned aggregation, and any caller that wants row-partitioned
// data parallelism. One fixed set of goroutines serves the whole process,
// so concurrent training workers, the serving batcher, and offline
// inference contend for the same CPUs instead of oversubscribing them.
//
// Submission never blocks: when every worker is busy (or the pool is
// disabled), the submitting goroutine runs the task inline. That makes
// nested parallel sections — an aggregation inside a training worker that
// is itself one of several goroutines — deadlock-free by construction.

var (
	poolOnce  sync.Once
	poolTasks chan *poolJob

	// parOverride, when > 0, caps the number of chunks any parallel
	// kernel fans out to. 1 forces every kernel serial. 0 means "use
	// GOMAXPROCS". It exists for determinism tests and benchmarks; the
	// kernels are row-partitioned, so results are bit-identical at any
	// setting.
	parOverride atomic.Int32
)

// poolJob describes one fan-out: a range [0, n) cut into fixed-size chunks
// that workers (and the submitting goroutine) claim with an atomic
// counter. kindDot dispatches the dense product kernel without a closure,
// keeping the hot training path at one allocation per parallel matmul;
// kindEach covers generic callers.
type poolJob struct {
	kind      int
	dst, a, b *Matrix
	rows      []int // kindDot's destination rows; nil means all
	each      func(i int)
	n, size   int
	chunks    int32
	next      atomic.Int32
	wg        sync.WaitGroup
}

// poolJob kinds.
const (
	kindEach = iota
	kindDot
)

// run claims chunks until the job is exhausted. Safe to call from any
// number of goroutines; a late worker that receives an already-finished
// job simply returns.
func (j *poolJob) run() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		lo := int(c) * j.size
		hi := lo + j.size
		if hi > j.n {
			hi = j.n
		}
		switch j.kind {
		case kindEach:
			for i := lo; i < hi; i++ {
				j.each(i)
			}
		case kindDot:
			dotRowsRange(j.dst, j.a, j.b, j.rows, lo, hi)
		}
		j.wg.Done()
	}
}

func startPool() {
	n := runtime.GOMAXPROCS(0)
	poolTasks = make(chan *poolJob)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolTasks {
				j.run()
			}
		}()
	}
}

// dispatch fans j out: up to chunks-1 workers are woken without blocking
// (a busy pool just means the caller does more of the work itself), then
// the caller joins the chunk-claiming loop and waits for stragglers.
func dispatch(j *poolJob) {
	poolOnce.Do(startPool)
	j.wg.Add(int(j.chunks))
	for i := int32(1); i < j.chunks; i++ {
		select {
		case poolTasks <- j:
		default:
			i = j.chunks // no idle worker: stop knocking
		}
	}
	j.run()
	j.wg.Wait()
}

// jobChunks sizes a fan-out: ceil(n/grain) chunks capped at the
// parallelism setting; 0 or 1 means "run inline".
func jobChunks(n, grain int) (chunks int32, size int) {
	if grain < 1 {
		grain = 1
	}
	c := (n + grain - 1) / grain
	if p := Parallelism(); c > p {
		c = p
	}
	if c <= 1 {
		return 1, n
	}
	return int32(c), (n + c - 1) / c
}

// Parallelism reports the current fan-out cap for parallel kernels.
func Parallelism() int {
	if p := parOverride.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism caps kernel fan-out at n (1 = fully serial, 0 = restore
// the GOMAXPROCS default) and returns the previous cap. Because every
// kernel partitions output rows, changing the setting never changes
// results, only speed.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parOverride.Swap(int32(n)))
}

// ParallelEach runs fn(i) for i in [0, n) on the shared pool, returning
// when all are done. It is the hook for callers that have already
// partitioned their work (sparse edge partitions). Like the dense kernels
// it honors the SetParallelism cap — indices are grouped into at most that
// many chunks — and degrades to inline execution at parallelism 1.
func ParallelEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	chunks, size := jobChunks(n, 1)
	if chunks <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	dispatch(&poolJob{kind: kindEach, each: fn, n: n, size: size, chunks: chunks})
}
