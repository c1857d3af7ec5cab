// Package baseline implements the in-memory, full-graph trainer AGL is
// compared against in the paper's Tables 3 and 4 — the stand-in for DGL
// and PyG standalone mode. It shares the GNN math kernels with AGL but
// keeps the whole graph resident, trains full-batch, and uses none of
// GraphTrainer's system optimizations, so measured differences isolate the
// system effects (pipeline, pruning, edge partitioning, disk-backed
// GraphFeatures) rather than numeric ones.
package baseline

import (
	"fmt"
	"time"

	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/metrics"
	"agl/internal/nn"
	"agl/internal/tensor"
)

// Config parameterizes the full-graph trainer.
type Config struct {
	Model  gnn.Config
	Epochs int
	LR     float64
	// MultiLabel selects sigmoid BCE over label vectors; otherwise softmax
	// cross-entropy over integer labels.
	MultiLabel bool
	// Threads enables edge-partitioned aggregation (kept available so the
	// baseline can also be run "optimized" for ablations; the paper's
	// baseline uses 1).
	Threads int
}

// Result is the trainer's output.
type Result struct {
	Model *gnn.Model
	// EpochTime is the mean wall time of one full-graph training epoch —
	// the quantity of paper Table 4.
	EpochTime time.Duration
	Losses    []float64
}

// Train runs full-batch training over the entire dataset graph.
func Train(ds *datagen.Dataset, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	model, err := gnn.NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	bg, labels, labelVecs, err := FullBatch(ds, ds.Train, cfg.Model.Classes)
	if err != nil {
		return nil, err
	}
	opt := gnn.RunOptions{Train: true, Threads: cfg.Threads}
	adam := nn.NewAdam(cfg.LR)
	res := &Result{Model: model}

	var total time.Duration
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		t0 := time.Now()
		opt.Key = uint64(epoch) // a fresh dropout mask every epoch
		prep := model.Prepare(bg, opt)
		st := model.Forward(bg, prep, opt)
		var loss float64
		var dLogits *tensor.Matrix
		if cfg.MultiLabel {
			loss, dLogits = nn.SigmoidBCE(st.Logits, labelVecs)
		} else {
			loss, dLogits = nn.SoftmaxCrossEntropy(st.Logits, labels)
		}
		model.Params().ZeroGrads()
		model.Backward(st, dLogits)
		adam.StepAll(model.Params())
		total += time.Since(t0)
		res.Losses = append(res.Losses, loss)
	}
	res.EpochTime = total / time.Duration(cfg.Epochs)
	return res, nil
}

// FullBatch builds a whole-graph BatchGraph with the given node IDs as
// targets, plus their labels.
func FullBatch(ds *datagen.Dataset, ids []int64, classes int) (*gnn.BatchGraph, []int, *tensor.Matrix, error) {
	g := ds.G
	adj := g.CSR()
	x := tensor.New(g.NumNodes(), g.FeatureDim())
	for i, n := range g.Nodes {
		copy(x.Row(i), n.Feat)
	}
	targets := make([]int, 0, len(ids))
	labels := make([]int, 0, len(ids))
	var labelVecs *tensor.Matrix
	if ds.MultiLabel {
		labelVecs = tensor.New(len(ids), classes)
	}
	for bi, id := range ids {
		idx, ok := g.Index(id)
		if !ok {
			return nil, nil, nil, fmt.Errorf("baseline: unknown node %d", id)
		}
		targets = append(targets, idx)
		labels = append(labels, ds.Labels[idx])
		if labelVecs != nil {
			copy(labelVecs.Row(bi), ds.LabelVecs.Row(idx))
		}
	}
	bg := &gnn.BatchGraph{Adj: adj, X: x, Targets: targets, Dist: gnn.ComputeDistances(adj, targets)}
	var edgeFeat map[[2]int][]float64
	for _, e := range g.EdgeTable() {
		if len(e.Feat) == 0 {
			continue
		}
		if edgeFeat == nil {
			edgeFeat = make(map[[2]int][]float64)
		}
		edgeFeat[[2]int{g.MustIndex(e.Dst), g.MustIndex(e.Src)}] = e.Feat
	}
	bg.EdgeFeat = edgeFeat
	return bg, labels, labelVecs, nil
}

// Evaluate scores a trained model on the given split with the dataset's
// natural metric: micro-F1 for multi-label, accuracy otherwise. For binary
// single-logit models it returns AUC.
func Evaluate(model *gnn.Model, ds *datagen.Dataset, ids []int64) (float64, error) {
	bg, labels, labelVecs, err := FullBatch(ds, ids, model.Cfg.Classes)
	if err != nil {
		return 0, err
	}
	logits := model.Infer(bg, gnn.RunOptions{})
	switch {
	case ds.MultiLabel:
		return metrics.MicroF1(nn.SigmoidMatrix(logits), labelVecs, 0.5), nil
	case model.Cfg.Classes == 1:
		scores := make([]float64, logits.Rows)
		for i := range scores {
			scores[i] = nn.Sigmoid(logits.At(i, 0))
		}
		return metrics.AUC(scores, labels), nil
	default:
		return metrics.Accuracy(logits.ArgMaxRows(), labels), nil
	}
}
