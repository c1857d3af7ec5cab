package gnn

import (
	"bytes"
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// edgeBatch extends testBatch with random edge features.
func edgeBatch(rng *rand.Rand, n, feat, edgeDim, targets int, density float64) *BatchGraph {
	b := testBatch(rng, n, feat, targets, density)
	b.EdgeFeat = make(map[[2]int][]float64)
	for _, e := range b.Adj.Entries() {
		ef := make([]float64, edgeDim)
		for j := range ef {
			ef[j] = rng.NormFloat64()
		}
		b.EdgeFeat[[2]int{e.Row, e.Col}] = ef
	}
	return b
}

func newEdgeGAT(t *testing.T, layers, feat, hidden, classes, heads, edgeDim int) *Model {
	t.Helper()
	m, err := NewModel(Config{
		Kind: KindGAT, InDim: feat, Hidden: hidden, Classes: classes,
		Layers: layers, Heads: heads, EdgeDim: edgeDim, Act: nn.ActTanh, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEdgeGATHasEdgeParams(t *testing.T) {
	m := newEdgeGAT(t, 2, 5, 6, 3, 2, 4)
	found := 0
	for _, p := range m.Params().List() {
		if len(p.Name) > 6 && p.Name[len(p.Name)-7:len(p.Name)-1] == "/aedge" {
			found++
			if p.W.Rows != 4 || p.W.Cols != 1 {
				t.Fatalf("aedge shape %dx%d", p.W.Rows, p.W.Cols)
			}
		}
	}
	if found != 4 { // 2 layers x 2 heads
		t.Fatalf("found %d aedge params, want 4", found)
	}
}

func TestEdgeGATGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := edgeBatch(rng, 12, 5, 3, 3, 0.25)
	labels := []int{0, 1, 2}
	m := newEdgeGAT(t, 2, 5, 6, 3, 2, 3)
	opt := RunOptions{}
	lossFn := func() float64 {
		prep := m.Prepare(b, opt)
		st := m.Forward(b, prep, opt)
		l, _ := nn.SoftmaxCrossEntropy(st.Logits, labels)
		return l
	}
	prep := m.Prepare(b, opt)
	st := m.Forward(b, prep, opt)
	_, dl := nn.SoftmaxCrossEntropy(st.Logits, labels)
	m.Params().ZeroGrads()
	m.Backward(st, dl)
	for _, p := range m.Params().List() {
		stride := 1
		if len(p.W.Data) > 40 {
			stride = len(p.W.Data) / 40
		}
		rel, err := nn.GradCheck(p, lossFn, 1e-6, stride)
		if err != nil {
			t.Fatal(err)
		}
		if rel > 2e-4 {
			t.Fatalf("param %s gradcheck rel error %v", p.Name, rel)
		}
	}
}

func TestEdgeFeaturesChangeGATOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := edgeBatch(rng, 15, 5, 3, 3, 0.25)
	m := newEdgeGAT(t, 2, 5, 6, 2, 1, 3)
	withEdges := m.Infer(b, RunOptions{})
	// Same batch, edge features removed.
	b2 := *b
	b2.EdgeFeat = nil
	withoutEdges := m.Infer(&b2, RunOptions{})
	if tensor.Equalish(withEdges, withoutEdges, 1e-12) {
		t.Fatal("edge features had no effect on attention")
	}
}

func TestEdgeGATPruningAndPartitioningStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b := edgeBatch(rng, 25, 5, 3, 4, 0.15)
	m := newEdgeGAT(t, 2, 5, 6, 2, 1, 3)
	base := m.Infer(b, RunOptions{})
	pruned := m.Infer(b, RunOptions{Pruning: true})
	if !tensor.Equalish(base, pruned, 1e-9) {
		t.Fatalf("pruning changed edge-GAT logits by %v", tensor.MaxAbsDiff(base, pruned))
	}
	parallel := m.Infer(b, RunOptions{Threads: 6})
	if !tensor.Equalish(base, parallel, 1e-10) {
		t.Fatalf("partitioning changed edge-GAT logits by %v", tensor.MaxAbsDiff(base, parallel))
	}
}

func TestEdgeGATSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := edgeBatch(rng, 12, 5, 3, 2, 0.25)
	m := newEdgeGAT(t, 2, 5, 6, 2, 1, 3)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equalish(m.Infer(b, RunOptions{}), m2.Infer(b, RunOptions{}), 0) {
		t.Fatal("edge-GAT load changed outputs")
	}
}

// Guard: non-GAT models ignore edge features entirely.
func TestEdgeFeaturesIgnoredByGCNAndSAGE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := edgeBatch(rng, 15, 5, 3, 3, 0.25)
	for _, kind := range []string{KindGCN, KindSAGE} {
		m, err := NewModel(Config{
			Kind: kind, InDim: 5, Hidden: 6, Classes: 2, Layers: 2,
			EdgeDim: 3, Act: nn.ActTanh, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		withEdges := m.Infer(b, RunOptions{})
		b2 := *b
		b2.EdgeFeat = nil
		withoutEdges := m.Infer(&b2, RunOptions{})
		if !tensor.Equalish(withEdges, withoutEdges, 0) {
			t.Fatalf("%s consumed edge features", kind)
		}
	}
}

var _ = sparse.Coo{} // keep sparse import when helpers change
