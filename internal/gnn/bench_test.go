package gnn

import (
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// Per-layer forward/backward ablation benchmarks: the kernels whose
// relative costs drive the paper's Table 4 shape (GAT's attention math
// dominating aggregation; partitioning paying off for GCN/SAGE).

func benchBatch(b *testing.B, n int) *BatchGraph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return testBatchB(rng, n, 32, n/8, 6.0/float64(n))
}

// testBatchB mirrors the test helper without *testing.T.
func testBatchB(rng *rand.Rand, n, feat, targets int, density float64) *BatchGraph {
	var es []sparse.Coo
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v && rng.Float64() < density {
				es = append(es, sparse.Coo{Row: v, Col: u, Val: 1 + rng.Float64()})
			}
		}
	}
	b := &BatchGraph{Adj: sparse.NewCSR(n, n, es)}
	x := tensor.New(n, feat)
	x.RandFill(rng, 1)
	b.X = x
	perm := rng.Perm(n)
	b.Targets = append([]int(nil), perm[:targets]...)
	b.Dist = ComputeDistances(b.Adj, b.Targets)
	return b
}

func benchModel(b *testing.B, kind string, heads int) *Model {
	b.Helper()
	m, err := NewModel(Config{
		Kind: kind, InDim: 32, Hidden: 32, Classes: 2, Layers: 2,
		Heads: heads, Act: nn.ActReLU, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchForwardBackward measures one full train step — Prepare (adjacency
// normalization + aggregator build), Forward, loss, Backward — exactly as
// the trainer runs it: every temporary drawn from a per-step workspace
// that is reset between iterations.
func benchForwardBackward(b *testing.B, m *Model, bg *BatchGraph, opt RunOptions) {
	b.Helper()
	labels := make([]int, len(bg.Targets))
	for i := range labels {
		labels[i] = i % 2
	}
	ws := tensor.NewWorkspace()
	opt.Workspace = ws
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep := m.Prepare(bg, opt)
		st := m.Forward(bg, prep, opt)
		_, dl := nn.SoftmaxCrossEntropyWS(ws, st.Logits, labels)
		m.Params().ZeroGrads()
		m.Backward(st, dl)
		ws.Reset()
	}
}

func BenchmarkGCNTrainStepSerial(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindGCN, 1), benchBatch(b, 1024), RunOptions{Train: true})
}

func BenchmarkGCNTrainStepPartitioned(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindGCN, 1), benchBatch(b, 1024),
		RunOptions{Train: true, Threads: 8})
}

func BenchmarkGCNTrainStepPruned(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindGCN, 1), benchBatch(b, 1024),
		RunOptions{Train: true, Pruning: true})
}

func BenchmarkSAGETrainStepSerial(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindSAGE, 1), benchBatch(b, 1024), RunOptions{Train: true})
}

func BenchmarkGATTrainStepSerial(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindGAT, 4), benchBatch(b, 1024), RunOptions{Train: true})
}

func BenchmarkGATTrainStepPartitioned(b *testing.B) {
	benchForwardBackward(b, benchModel(b, KindGAT, 4), benchBatch(b, 1024),
		RunOptions{Train: true, Threads: 8})
}

func BenchmarkModelSegment(b *testing.B) {
	m := benchModel(b, KindGAT, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Segment(); err != nil {
			b.Fatal(err)
		}
	}
}

// khopBatch builds a two-hop batch shaped like a GraphFlat training batch:
// every one of hop1 rows feeds a target and every one of hop2 rows feeds a
// hop1 row, plus fanIn random in-edges per target and per hop1 row from the
// next ring out. Most rows sit two hops out, as in bench's offline_dense
// (582 rows, 163 within one hop).
func khopBatch(rng *rand.Rand, targets, hop1, hop2, fanIn, feat int) *BatchGraph {
	n := targets + hop1 + hop2
	seen := map[[2]int]bool{}
	var es []sparse.Coo
	link := func(dst, src int) {
		if !seen[[2]int{dst, src}] {
			seen[[2]int{dst, src}] = true
			es = append(es, sparse.Coo{Row: dst, Col: src, Val: 1})
		}
	}
	for i := 0; i < hop1; i++ {
		link(i%targets, targets+i)
	}
	for i := 0; i < hop2; i++ {
		link(targets+i%hop1, targets+hop1+i)
	}
	for k := 0; k < fanIn; k++ {
		for v := 0; v < targets; v++ {
			link(v, targets+rng.Intn(hop1))
		}
		for v := targets; v < targets+hop1; v++ {
			link(v, targets+hop1+rng.Intn(hop2))
		}
	}
	b := &BatchGraph{Adj: sparse.NewCSR(n, n, es), X: tensor.New(n, feat)}
	b.X.RandFill(rng, 1)
	for v := 0; v < targets; v++ {
		b.Targets = append(b.Targets, v)
	}
	b.Dist = ComputeDistances(b.Adj, b.Targets)
	return b
}

// BenchmarkGATTrainStepDense is one offline_dense-shaped step: a 256-dim
// two-hop batch through a two-layer GAT with hidden 64, with and without
// pruning.
func BenchmarkGATTrainStepDense(b *testing.B) {
	for _, prune := range []bool{false, true} {
		name := "base"
		if prune {
			name = "pruned"
		}
		b.Run(name, func(b *testing.B) {
			bg := khopBatch(rand.New(rand.NewSource(3)), 32, 131, 419, 4, 256)
			m, err := NewModel(Config{Kind: KindGAT, InDim: 256, Hidden: 64, Classes: 2, Layers: 2,
				Heads: 1, Act: nn.ActReLU, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			benchForwardBackward(b, m, bg, RunOptions{Train: true, Pruning: prune, Threads: 2})
		})
	}
}
