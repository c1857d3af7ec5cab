package gnn

import (
	"bytes"
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/sparse"
	"agl/internal/tensor"
)

// testBatch builds a small random batch graph with t target nodes.
func testBatch(rng *rand.Rand, n, feat, targets int, density float64) *BatchGraph {
	var es []sparse.Coo
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v && rng.Float64() < density {
				es = append(es, sparse.Coo{Row: v, Col: u, Val: 1 + rng.Float64()})
			}
		}
	}
	adj := sparse.NewCSR(n, n, es)
	x := tensor.New(n, feat)
	x.RandFill(rng, 1)
	tg := make([]int, targets)
	perm := rng.Perm(n)
	copy(tg, perm[:targets])
	return &BatchGraph{Adj: adj, X: x, Targets: tg, Dist: ComputeDistances(adj, tg)}
}

func newTestModel(t *testing.T, kind string, layers, feat, hidden, classes, heads int) *Model {
	t.Helper()
	m, err := NewModel(Config{
		Kind: kind, InDim: feat, Hidden: hidden, Classes: classes,
		Layers: layers, Heads: heads, Act: nn.ActTanh, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func trainLoss(m *Model, b *BatchGraph, labels []int, opt RunOptions) float64 {
	prep := m.Prepare(b, opt)
	st := m.Forward(b, prep, opt)
	l, _ := nn.SoftmaxCrossEntropy(st.Logits, labels)
	return l
}

func TestComputeDistances(t *testing.T) {
	// Chain 3->2->1->0 plus disconnected node 4.
	adj := sparse.NewCSR(5, 5, []sparse.Coo{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 3, Val: 1},
	})
	d := ComputeDistances(adj, []int{0})
	want := []int{0, 1, 2, 3, -1}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist[%d]=%d want %d", i, d[i], w)
		}
	}
	// Multiple targets take the minimum.
	d2 := ComputeDistances(adj, []int{0, 2})
	if d2[3] != 1 || d2[1] != 1 || d2[2] != 0 {
		t.Fatalf("multi-target dist: %v", d2)
	}
}

func TestModelGradcheckAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := testBatch(rng, 12, 5, 3, 0.25)
	labels := []int{0, 1, 2}
	for _, kind := range []string{KindGCN, KindSAGE, KindGAT} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			heads := 1
			if kind == KindGAT {
				heads = 2
			}
			m := newTestModel(t, kind, 2, 5, 6, 3, heads)
			opt := RunOptions{Train: false}
			lossFn := func() float64 { return trainLoss(m, b, labels, opt) }

			prep := m.Prepare(b, opt)
			st := m.Forward(b, prep, opt)
			_, dLogits := nn.SoftmaxCrossEntropy(st.Logits, labels)
			m.Params().ZeroGrads()
			m.Backward(st, dLogits)

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
					t.Fatalf("%s param %s gradcheck rel error %v", kind, p.Name, rel)
				}
			}
		})
	}
}

func TestPruningPreservesTargetLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := testBatch(rng, 30, 6, 4, 0.12)
	for _, kind := range []string{KindGCN, KindSAGE, KindGAT} {
		m := newTestModel(t, kind, 3, 6, 4, 2, 1)
		full := m.Infer(b, RunOptions{Pruning: false})
		pruned := m.Infer(b, RunOptions{Pruning: true})
		if !tensor.Equalish(full, pruned, 1e-9) {
			t.Fatalf("%s: pruning changed target logits by %v", kind, tensor.MaxAbsDiff(full, pruned))
		}
	}
}

func TestPruningReducesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := testBatch(rng, 40, 4, 2, 0.1)
	m := newTestModel(t, KindGCN, 2, 4, 4, 2, 1)
	full := m.Prepare(b, RunOptions{})
	pruned := m.Prepare(b, RunOptions{Pruning: true})
	for k := range full.Aggs {
		if pruned.Aggs[k].A.NNZ() > full.Aggs[k].A.NNZ() {
			t.Fatalf("layer %d gained edges under pruning", k)
		}
	}
	// The last layer must keep only edges into targets.
	last := pruned.Aggs[len(pruned.Aggs)-1].A
	targetSet := map[int]bool{}
	for _, v := range b.Targets {
		targetSet[v] = true
	}
	for _, e := range last.Entries() {
		if !targetSet[e.Row] {
			t.Fatalf("last layer kept edge into non-target %d", e.Row)
		}
	}
	if last.NNZ() >= full.Aggs[len(full.Aggs)-1].A.NNZ() {
		t.Fatal("pruning did not shrink last layer")
	}
}

func TestEdgePartitioningMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := testBatch(rng, 25, 5, 3, 0.15)
	for _, kind := range []string{KindGCN, KindSAGE, KindGAT} {
		m := newTestModel(t, kind, 2, 5, 4, 2, 2)
		serial := m.Infer(b, RunOptions{Threads: 1})
		parallel := m.Infer(b, RunOptions{Threads: 6})
		if !tensor.Equalish(serial, parallel, 1e-10) {
			t.Fatalf("%s: partitioned aggregation diverged by %v", kind, tensor.MaxAbsDiff(serial, parallel))
		}
	}
}

func TestParallelBackwardMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := testBatch(rng, 20, 5, 4, 0.2)
	labels := []int{0, 1, 0, 1}
	for _, kind := range []string{KindGCN, KindSAGE, KindGAT} {
		grads := map[string]*tensor.Matrix{}
		for _, threads := range []int{1, 5} {
			m := newTestModel(t, kind, 2, 5, 4, 2, 2)
			opt := RunOptions{Threads: threads}
			prep := m.Prepare(b, opt)
			st := m.Forward(b, prep, opt)
			_, dl := nn.SoftmaxCrossEntropy(st.Logits, labels)
			m.Params().ZeroGrads()
			m.Backward(st, dl)
			for _, p := range m.Params().List() {
				if threads == 1 {
					grads[p.Name] = p.Grad.Clone()
				} else if !tensor.Equalish(grads[p.Name], p.Grad, 1e-10) {
					t.Fatalf("%s %s: parallel grad differs by %v", kind, p.Name,
						tensor.MaxAbsDiff(grads[p.Name], p.Grad))
				}
			}
		}
	}
}

// runSliced runs the model's slices one after another over the whole batch,
// as GraphInfer's rounds do block by block, and returns every node's logits.
func runSliced(t *testing.T, m *Model, b *BatchGraph) *tensor.Matrix {
	t.Helper()
	slices, err := m.Segment()
	if err != nil {
		t.Fatal(err)
	}
	h := b.X
	for _, s := range slices {
		if s.IsPrediction() {
			return s.Head.Forward(nil, h)
		}
		h = s.Forward(nil, &BatchGraph{Adj: b.Adj, X: h, Deg: b.Deg, EdgeFeat: b.EdgeFeat}, nil)
	}
	t.Fatal("no prediction slice")
	return nil
}

// TestModelSaveLoadRoundTrip: every layer kind, with and without a learned
// edge head, gives bit-equal node and link logits after Save→Load, and the
// loaded model marshals back to the same bytes.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := edgeBatch(rng, 15, 5, 3, 3, 0.2)
	src, dst := []int{0, 4, 9}, []int{2, 4, 1}
	for _, kind := range []string{KindGCN, KindSAGE, KindGAT, KindGIN} {
		for _, head := range []string{"", EdgeHeadBilinear, EdgeHeadMLP} {
			m, err := NewModel(Config{
				Kind: kind, InDim: 5, Hidden: 4, Classes: 2, Layers: 2, Heads: 2,
				EdgeDim: 3, EdgeHead: head, Act: nn.ActTanh, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			saved := append([]byte(nil), buf.Bytes()...)
			m2, err := Load(&buf)
			if err != nil {
				t.Fatalf("%s/%q: %v", kind, head, err)
			}
			if !sameBits(m.Infer(b, RunOptions{}), m2.Infer(b, RunOptions{})) {
				t.Fatalf("%s/%q: loaded model produces different logits", kind, head)
			}
			if head != "" && !sameBits(m.InferEdges(b, src, dst, RunOptions{}), m2.InferEdges(b, src, dst, RunOptions{})) {
				t.Fatalf("%s/%q: loaded model produces different link logits", kind, head)
			}
			if again := mustMarshalModel(t, m2); !bytes.Equal(again, saved) {
				t.Fatalf("%s/%q: re-marshalled model differs from the file it was loaded from", kind, head)
			}
		}
	}
}

func TestSegmentIsolatesWeights(t *testing.T) {
	m := newTestModel(t, KindGCN, 2, 5, 4, 2, 1)
	slices, err := m.Segment()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the model must not change the slice.
	before := slices[0].Layer.(*GCNLayer).W.W.Clone()
	m.Layers[0].(*GCNLayer).W.W.Fill(99)
	if !tensor.Equalish(before, slices[0].Layer.(*GCNLayer).W.W, 0) {
		t.Fatal("slice shares weight storage with model")
	}
}

func TestModelConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unknown kind":           {Kind: "bogus", InDim: 2, Hidden: 2, Classes: 2},
		"zero dims":              {Kind: KindGCN},
		"GAT heads not dividing": {Kind: KindGAT, InDim: 2, Hidden: 5, Classes: 2, Heads: 2},
		"negative heads":         {Kind: KindGAT, InDim: 2, Hidden: 4, Classes: 2, Heads: -2},
		"negative layers":        {Kind: KindGCN, InDim: 2, Hidden: 2, Classes: 2, Layers: -1},
		"negative edge dim":      {Kind: KindGAT, InDim: 2, Hidden: 2, Classes: 2, EdgeDim: -3},
	} {
		if _, err := NewModel(cfg); err == nil {
			t.Fatalf("%s: expected an error for %+v", name, cfg)
		}
	}
}

func TestDropoutActiveOnlyInTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := testBatch(rng, 15, 5, 3, 0.2)
	m, err := NewModel(Config{
		Kind: KindGCN, InDim: 5, Hidden: 4, Classes: 2, Layers: 2,
		Act: nn.ActTanh, Dropout: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two eval passes are deterministic.
	a := m.Infer(b, RunOptions{})
	c := m.Infer(b, RunOptions{})
	if !tensor.Equalish(a, c, 0) {
		t.Fatal("eval passes nondeterministic (dropout leaked)")
	}
	// Training passes of two batch keys differ (dropout active); the masks
	// are the key's, so repeating a key repeats the pass.
	pass := func(key uint64) *tensor.Matrix {
		opt := RunOptions{Train: true, Key: key}
		return m.Forward(b, m.Prepare(b, opt), opt).Logits
	}
	p1, p2 := pass(1), pass(2)
	if tensor.Equalish(p1, p2, 1e-12) {
		t.Fatal("training passes identical; dropout inactive")
	}
	if !sameBits(pass(1), p1) {
		t.Fatal("one batch key drew two masks")
	}
}

func TestGATHeadsDivisibilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGAT("g", 4, 5, 2, 0, nn.ActReLU, rand.New(rand.NewSource(0)))
}

func TestModelLearnsTinyTask(t *testing.T) {
	// Two clusters with opposite features and intra-cluster edges: a GCN
	// should fit the labels quickly.
	rng := rand.New(rand.NewSource(9))
	n := 20
	var es []sparse.Coo
	x := tensor.New(n, 4)
	labels := make([]int, n)
	targets := make([]int, n)
	for i := 0; i < n; i++ {
		targets[i] = i
		cls := i % 2
		labels[i] = cls
		for j := 0; j < 4; j++ {
			base := -1.0
			if cls == 1 {
				base = 1.0
			}
			x.Set(i, j, base+0.3*rng.NormFloat64())
		}
		// Ring within class.
		es = append(es, sparse.Coo{Row: i, Col: (i + 2) % n, Val: 1})
		es = append(es, sparse.Coo{Row: (i + 2) % n, Col: i, Val: 1})
	}
	adj := sparse.NewCSR(n, n, es)
	b := &BatchGraph{Adj: adj, X: x, Targets: targets, Dist: ComputeDistances(adj, targets)}
	m := newTestModel(t, KindGCN, 2, 4, 8, 2, 1)
	opt := RunOptions{Train: true}
	adam := nn.NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 60; epoch++ {
		prep := m.Prepare(b, opt)
		st := m.Forward(b, prep, opt)
		var dl *tensor.Matrix
		loss, dl = nn.SoftmaxCrossEntropy(st.Logits, labels)
		m.Params().ZeroGrads()
		m.Backward(st, dl)
		adam.StepAll(m.Params())
	}
	if loss > 0.2 {
		t.Fatalf("model failed to learn: final loss %v", loss)
	}
	pred := m.Infer(b, RunOptions{}).ArgMaxRows()
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < 18 {
		t.Fatalf("accuracy %d/20 too low", correct)
	}
}
