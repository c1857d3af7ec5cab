package gnn

import (
	"bytes"
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

func newGINModel(t *testing.T, layers, feat, hidden, classes int) *Model {
	t.Helper()
	m, err := NewModel(Config{
		Kind: KindGIN, InDim: feat, Hidden: hidden, Classes: classes,
		Layers: layers, Act: nn.ActTanh, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGINGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := testBatch(rng, 12, 5, 3, 0.25)
	labels := []int{0, 1, 2}
	m := newGINModel(t, 2, 5, 6, 3)
	opt := RunOptions{}
	lossFn := func() float64 { return trainLoss(m, b, labels, opt) }
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

func TestGINEpsilonLearns(t *testing.T) {
	m := newGINModel(t, 1, 4, 4, 2)
	var eps *nn.Param
	for _, p := range m.Params().List() {
		if p.Name == "l0/eps" {
			eps = p
		}
	}
	if eps == nil {
		t.Fatal("no epsilon parameter")
	}
	if eps.W.Data[0] != 0 {
		t.Fatalf("epsilon should initialize to 0, got %v", eps.W.Data[0])
	}
}

func TestGINPruningAndPartitioningExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := testBatch(rng, 30, 6, 4, 0.12)
	m := newGINModel(t, 3, 6, 4, 2)
	full := m.Infer(b, RunOptions{})
	pruned := m.Infer(b, RunOptions{Pruning: true})
	if !tensor.Equalish(full, pruned, 1e-9) {
		t.Fatalf("pruning changed GIN logits by %v", tensor.MaxAbsDiff(full, pruned))
	}
	parallel := m.Infer(b, RunOptions{Threads: 6})
	if !tensor.Equalish(full, parallel, 1e-10) {
		t.Fatalf("partitioning changed GIN logits by %v", tensor.MaxAbsDiff(full, parallel))
	}
}

func TestGINSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	b := testBatch(rng, 15, 5, 3, 0.2)
	m := newGINModel(t, 2, 5, 4, 2)
	// Perturb epsilon so the round trip carries a non-default value.
	m.Params().Get("l0/eps").W.Data[0] = 0.37
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Params().Get("l0/eps").W.Data[0] != 0.37 {
		t.Fatal("epsilon lost in round trip")
	}
	if !tensor.Equalish(m.Infer(b, RunOptions{}), m2.Infer(b, RunOptions{}), 0) {
		t.Fatal("GIN load changed outputs")
	}
}

func TestGINLearnsTinyTask(t *testing.T) {
	// Sum aggregation distinguishes degree patterns that mean aggregation
	// cannot: two classes with identical feature means but different
	// degrees.
	rng := rand.New(rand.NewSource(25))
	n := 24
	b := testBatch(rng, n, 4, n, 0.0) // start with no edges
	// Class = many in-edges vs few: rebuild adjacency with degree signal.
	labels := make([]int, n)
	var es []struct{ r, c int }
	for v := 0; v < n; v++ {
		labels[v] = v % 2
		deg := 1
		if labels[v] == 1 {
			deg = 6
		}
		for d := 0; d < deg; d++ {
			u := (v + 1 + d) % n
			es = append(es, struct{ r, c int }{v, u})
		}
	}
	b = rebuildBatch(b, es)
	// Targets in node order so labels align with logit rows.
	b.Targets = make([]int, n)
	for i := range b.Targets {
		b.Targets[i] = i
	}
	b.Dist = ComputeDistances(b.Adj, b.Targets)
	// Identical features for both classes.
	b.X.Fill(0.5)
	m := newGINModel(t, 1, 4, 8, 2)
	opt := RunOptions{Train: true}
	adam := nn.NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 80; epoch++ {
		prep := m.Prepare(b, opt)
		st := m.Forward(b, prep, opt)
		var dl *tensor.Matrix
		loss, dl = nn.SoftmaxCrossEntropy(st.Logits, labels)
		m.Params().ZeroGrads()
		m.Backward(st, dl)
		adam.StepAll(m.Params())
	}
	if loss > 0.1 {
		t.Fatalf("GIN failed to learn degree signal: loss %v", loss)
	}
}

// rebuildBatch replaces a batch's adjacency with the given (row, col)
// edges, keeping targets and recomputing distances.
func rebuildBatch(b *BatchGraph, es []struct{ r, c int }) *BatchGraph {
	coos := make([]sparse.Coo, 0, len(es))
	for _, e := range es {
		coos = append(coos, sparse.Coo{Row: e.r, Col: e.c, Val: 1})
	}
	adj := sparse.NewCSR(b.Adj.NumRows, b.Adj.NumCols, coos)
	return &BatchGraph{
		Adj: adj, X: b.X, Targets: b.Targets,
		Dist: ComputeDistances(adj, b.Targets),
	}
}
