package experiments

import (
	"fmt"
	"strings"
	"time"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/nn"
	"agl/internal/ps"
)

// Fig7Curve is one convergence curve: AUC per epoch for a worker count.
type Fig7Curve struct {
	Workers int
	AUC     []float64
	Loss    []float64
}

// Fig7Result holds the convergence study.
type Fig7Result struct {
	Curves []Fig7Curve
	Text   string
}

func (r *Fig7Result) String() string { return r.Text }

// Fig7 reproduces the convergence study: a GAT trained on the UUG-like
// graph with increasing worker counts (asynchronous PS mode) converges to
// the same AUC, needing a few more epochs as parallelism grows. Worker
// counts are scaled to host cores (paper: 1/10/20/30 on a production
// cluster).
func Fig7(opt Options) (*Fig7Result, error) {
	uug, err := datagen.UUG(opt.uugCfg())
	if err != nil {
		return nil, err
	}
	train, test, err := flattenSplits(opt, uug, 2, core.LossBCE)
	if err != nil {
		return nil, err
	}
	epochs := 7
	workerSets := []int{1, 2, 4, 8}
	if opt.Quick {
		epochs = 4
		workerSets = []int{1, 2, 4}
	}
	res := &Fig7Result{}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: convergence (AUC vs epoch) on UUG-like graph, async PS\n")
	fmt.Fprintf(&b, "(worker counts scaled to host; paper uses 1/10/20/30)\n")
	for _, workers := range workerSets {
		opt.logf("fig7: %d workers", workers)
		tres, err := core.Train(core.TrainConfig{
			Model: gnn.Config{
				Kind: gnn.KindGAT, InDim: uug.G.FeatureDim(), Hidden: 8, Classes: 1,
				Layers: 2, Heads: 1, Act: nn.ActReLU, Seed: opt.Seed + 37,
			},
			Loss: core.LossBCE, BatchSize: 32, Epochs: epochs, LR: 0.01,
			Workers: workers, PSShards: 2, Mode: ps.Async,
			Eval: test, EvalMetric: core.MetricAUC, EvalEvery: 1,
			Seed: opt.Seed + 41,
		}, train)
		if err != nil {
			return nil, err
		}
		curve := Fig7Curve{Workers: workers}
		for _, st := range tres.History {
			curve.AUC = append(curve.AUC, st.Metric)
			curve.Loss = append(curve.Loss, st.Loss)
		}
		res.Curves = append(res.Curves, curve)
		fmt.Fprintf(&b, "workers=%-3d AUC:", workers)
		for _, a := range curve.AUC {
			fmt.Fprintf(&b, " %.4f", a)
		}
		fmt.Fprintln(&b)
	}
	res.Text = b.String()
	return res, nil
}

// Fig8Point is one speedup measurement or prediction.
type Fig8Point struct {
	Workers  int
	Speedup  float64
	Measured bool
}

// Fig8Result holds the speedup study.
type Fig8Result struct {
	Points []Fig8Point
	Slope  float64 // fitted speedup/workers slope over the modeled range
	Text   string
}

func (r *Fig8Result) String() string { return r.Text }

// Fig8 reproduces the speedup curve. Real multi-worker runs measure wall
// time up to the host's capacity; beyond that, the cluster cost model
// extrapolates using the measured per-batch compute time and a derived
// per-batch parameter-server cost (see internal/cluster). The paper
// reports slope ≈ 0.8 with 78x at 100 workers.
func Fig8(opt Options) (*Fig8Result, error) {
	uug, err := datagen.UUG(opt.uugCfg())
	if err != nil {
		return nil, err
	}
	train, _, err := flattenSplits(opt, uug, 2, core.LossBCE)
	if err != nil {
		return nil, err
	}
	mcfg := gnn.Config{
		Kind: gnn.KindGAT, InDim: uug.G.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Heads: 1, Act: nn.ActReLU, Seed: opt.Seed + 43,
	}
	batchSize := 32
	epochs := 2
	measureSets := []int{1, 2, 4}
	if !opt.Quick {
		measureSets = []int{1, 2, 4, 8}
	}

	res := &Fig8Result{}
	var t1 time.Duration
	for _, workers := range measureSets {
		opt.logf("fig8: measuring %d workers", workers)
		tres, err := core.Train(core.TrainConfig{
			Model: mcfg, Loss: core.LossBCE, BatchSize: batchSize, Epochs: epochs,
			LR: 0.01, Workers: workers, PSShards: 2, Mode: ps.Async,
			Pipeline: true, Seed: opt.Seed + 47,
		}, train)
		if err != nil {
			return nil, err
		}
		per := tres.Total / time.Duration(epochs)
		if workers == 1 {
			t1 = per
		}
		sp := 1.0
		if per > 0 {
			sp = float64(t1) / float64(per)
		}
		res.Points = append(res.Points, Fig8Point{Workers: workers, Speedup: sp, Measured: true})
	}

	// Extrapolate with the cluster model: per-batch compute from the
	// single-worker run, PS cost from model size over a 1 GbE-class
	// effective share (the paper's commodity cluster), matching its ~25%
	// per-batch overhead.
	batches := (len(train) + batchSize - 1) / batchSize
	perBatch := t1 / time.Duration(batches)
	paramBytes := int64(0)
	model, err := gnn.NewModel(mcfg)
	if err != nil {
		return nil, err
	}
	paramBytes = int64(model.Params().NumValues() * 8)
	pullPush := DerivePullPush(paramBytes, 100e6, 200*time.Microsecond)
	if limit := perBatch / 4; pullPush < limit {
		// Small synthetic models underutilize the wire; clamp to the
		// paper-calibrated 25% per-batch overhead so the extrapolated curve
		// reflects production model sizes (656-dim features).
		pullPush = limit
	}
	sm := SpeedupModel{
		BatchCompute:        perBatch,
		PullPush:            pullPush,
		ContentionPerWorker: perBatch / 2000,
		Jitter:              0.02,
		Seed:                opt.Seed + 53,
	}
	clusterBatches := batches * 32 // cluster-scale workload (many more targets)
	for _, workers := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		res.Points = append(res.Points, Fig8Point{
			Workers: workers,
			Speedup: sm.Speedup(clusterBatches, workers),
		})
	}
	last := res.Points[len(res.Points)-1]
	res.Slope = last.Speedup / float64(last.Workers)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: training speedup vs workers (measured up to %d, modeled beyond)\n",
		measureSets[len(measureSets)-1])
	fmt.Fprintf(&b, "%-8s %-10s %s\n", "workers", "speedup", "source")
	for _, p := range res.Points {
		src := "cluster model"
		if p.Measured {
			src = "measured"
		}
		fmt.Fprintf(&b, "%-8d %-10.2f %s\n", p.Workers, p.Speedup, src)
	}
	fmt.Fprintf(&b, "slope at 100 workers: %.2f (paper: %.2f, 78x at 100)\n", res.Slope, paperFig8Slope)
	res.Text = b.String()
	return res, nil
}
