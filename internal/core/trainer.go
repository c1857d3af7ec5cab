package core

import (
	"fmt"
	"sync"
	"time"

	"agl/internal/gnn"
	"agl/internal/metrics"
	"agl/internal/nn"
	"agl/internal/ps"
	"agl/internal/sampling"
	"agl/internal/tensor"
)

// LossKind selects the training objective.
type LossKind int

// Objectives.
const (
	// LossCE is softmax cross-entropy over integer class labels (Cora).
	LossCE LossKind = iota
	// LossBCE is elementwise sigmoid binary cross-entropy over 0/1 label
	// vectors (PPI multi-label, UUG binary).
	LossBCE
)

// MetricKind selects the evaluation metric (paper Table 3).
type MetricKind int

// Metrics.
const (
	MetricAccuracy MetricKind = iota
	MetricMicroF1
	MetricAUC
)

// String names the metric.
func (m MetricKind) String() string {
	switch m {
	case MetricMicroF1:
		return "micro-F1"
	case MetricAUC:
		return "AUC"
	}
	return "accuracy"
}

// TrainConfig parameterizes GraphTrainer.
type TrainConfig struct {
	Model gnn.Config
	Loss  LossKind

	BatchSize int
	Epochs    int
	LR        float64

	// Workers is the number of training workers (paper Figure 4); each
	// holds a model replica and its own partition of the GraphFeatures.
	Workers int
	// PSShards is the number of parameter-server shards.
	PSShards int
	// Mode selects sync (BSP gradient averaging) or async consistency.
	Mode ps.Mode

	// The three optimization strategies of paper §3.3.2:
	Pipeline   bool // overlap vectorization with model compute
	Pruning    bool // per-layer pruned adjacency
	AggThreads int  // edge-partitioned aggregation threads (<=1 serial)

	// Seed keys the trainer's draws (Model.Seed keys initialization and
	// dropout): in epoch e worker w orders its share of partition p by the
	// permutation keyed (Seed, e, p, w), link negatives by that and the batch
	// index, and TrainPartitions orders partitions by (Seed, e), so epoch e
	// draws alike whether or not epochs 1..e−1 ran.
	Seed int64

	// Eval, when non-nil, is scored with EvalMetric every EvalEvery epochs
	// and on the final model, which gives the convergence curves of the
	// paper's Figure 7. EvalEvery 0 scores the final model only.
	Eval       [][]byte
	EvalEvery  int
	EvalMetric MetricKind

	// NegativeRatio is the number of uniform negatives sampled per positive
	// pair at batch-assembly time during link training (Model.EdgeHead set;
	// 0 selects 1). Meaningless for node tasks and rejected there.
	NegativeRatio int

	// Patience enables early stopping: training stops once the eval metric
	// has not improved for Patience consecutive evaluations, and the best
	// snapshot is returned (0 disables; requires EvalEvery > 0). This is the
	// paper's protocol of training "at a maximum of 200 epochs" against a
	// validation set.
	Patience int

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PSShards <= 0 {
		c.PSShards = 1
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = c.Epochs // score the final model only
	}
	return c
}

// EpochStats records one epoch's accounting.
type EpochStats struct {
	Epoch int
	Loss  float64
	// Duration is the epoch's wall time, evaluation excluded: workers are
	// joined at the end of every pass, so an epoch has one.
	Duration time.Duration
	// VecBusy and ComputeBusy are summed across workers: time spent in
	// subgraph vectorization vs model computation. With the pipeline
	// enabled they overlap, so wall time approaches max(vec, compute)
	// instead of their sum — the effect of §3.3.2's training pipeline.
	VecBusy     time.Duration
	ComputeBusy time.Duration
	Metric      float64
	HasMetric   bool
}

// TrainResult is GraphTrainer's output.
type TrainResult struct {
	Model   *gnn.Model
	History []EpochStats
	Total   time.Duration
	// PSBytesOut/In are the parameter-server traffic totals.
	PSBytesOut, PSBytesIn int64
	// BestEpoch/BestMetric identify the best evaluated snapshot (zero when
	// no evaluation ran).
	BestEpoch  int
	BestMetric float64
	// Stopped reports whether early stopping fired before Epochs ran out.
	Stopped bool
}

// epochAcc accumulates one epoch's loss and phase timings across workers
// and passes.
type epochAcc struct {
	lossSum      float64
	batches      int64
	vec, compute time.Duration
}

func (a *epochAcc) add(b epochAcc) {
	a.lossSum += b.lossSum
	a.batches += b.batches
	a.vec += b.vec
	a.compute += b.compute
}

// Train runs distributed parameter-server training over encoded
// GraphFeature records (GraphFlat's output; LinkRecords when
// cfg.Model.EdgeHead is set). Every epoch is one pass over records;
// cfg.Eval is scored on a consistent global snapshot every cfg.EvalEvery
// epochs and on the final model, and cfg.Patience stops early.
//
// Train and TrainPartitions are one driver fed from different record
// sources. With Workers 1, the same Seed and the same records in the same
// order give the same model byte for byte whichever is called and however
// often it evaluates (early stopping aside). With several workers the order
// gradients reach the servers depends on scheduling, so Async runs are not
// bit-reproducible.
func Train(cfg TrainConfig, records [][]byte) (*TrainResult, error) {
	return train(cfg, len(records), func(_ int, pass func(int, [][]byte) error) error { return pass(0, records) })
}

// train is GraphTrainer's one driver. It runs cfg.Epochs epochs; epoch e
// feeds its share of the n records to pass, one call per partition it holds
// resident. After each epoch cfg.EvalEvery decides whether to score a
// snapshot and cfg.Patience whether to stop.
func train(cfg TrainConfig, n int, epoch func(e int, pass func(part int, recs [][]byte) error) error) (*TrainResult, error) {
	t, err := newTrainer(cfg)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("core: no training records")
	}
	cfg = t.cfg
	res := &TrainResult{}
	var best *gnn.Model
	bestMetric, sinceBest := -1.0, 0
	start := time.Now()
	for e := 1; e <= cfg.Epochs && !res.Stopped; e++ {
		t0 := time.Now()
		t.acc = epochAcc{}
		if err := epoch(e, func(part int, recs [][]byte) error { return t.pass(e, part, recs) }); err != nil {
			return nil, err
		}
		st := EpochStats{Epoch: e, Duration: time.Since(t0), VecBusy: t.acc.vec, ComputeBusy: t.acc.compute}
		if t.acc.batches > 0 {
			st.Loss = t.acc.lossSum / float64(t.acc.batches)
		}
		if cfg.Eval != nil && (e%cfg.EvalEvery == 0 || e == cfg.Epochs) {
			snap, err := t.snapshot()
			if err != nil {
				return nil, err
			}
			if st.Metric, err = evalDispatch(cfg, snap); err != nil {
				return nil, err
			}
			st.HasMetric = true
			if st.Metric > bestMetric {
				best, bestMetric, sinceBest = snap, st.Metric, 0
				res.BestEpoch, res.BestMetric = e, st.Metric
			} else {
				sinceBest++
			}
			res.Stopped = cfg.Patience > 0 && sinceBest >= cfg.Patience
			if cfg.Logf != nil {
				cfg.Logf("workers=%d epoch=%d loss=%.4f %s=%.4f", cfg.Workers, e, st.Loss, cfg.EvalMetric, st.Metric)
				if res.Stopped {
					cfg.Logf("early stop at epoch %d (best %s %.4f at epoch %d)", e, cfg.EvalMetric, bestMetric, res.BestEpoch)
				}
			}
		}
		res.History = append(res.History, st)
	}
	res.Total = time.Since(start)
	if res.Model, err = t.snapshot(); err != nil {
		return nil, err
	}
	if cfg.Patience > 0 && best != nil {
		res.Model = best // restore the early-stopping optimum
	}
	res.PSBytesOut, res.PSBytesIn = t.cluster.Traffic()
	return res, nil
}

// trainer is what one training run builds once and keeps across passes: the
// parameter-server cluster, the W workers, and the accounting of the epoch
// in flight.
type trainer struct {
	cfg     TrainConfig
	task    task
	cluster *ps.Cluster
	workers []*worker
	acc     epochAcc
}

// worker is one persistent training worker (paper Figure 4): a model
// replica, its parameter-server client and two workspaces. It carries no
// random state: every draw of a pass is keyed by the pass's coordinates.
type worker struct {
	local  *gnn.Model
	client ps.Client
	// free holds the worker's two workspaces between uses: batch N+1 is
	// vectorized into one arena while batch N's step runs against the other
	// (the paper's training pipeline, §3.3.2). A workspace comes back only
	// after its batch's step has finished, so the prepare stage can never
	// overwrite live activations.
	free chan *tensor.Workspace
}

func newTrainer(cfg TrainConfig) (*trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	t := &trainer{cfg: cfg, task: nodeTask(cfg)}
	if cfg.Model.EdgeHead != "" {
		t.task = linkTask(cfg)
	}
	for id := 0; id < cfg.Workers; id++ {
		local, err := gnn.NewModel(cfg.Model)
		if err != nil {
			return nil, err
		}
		w := &worker{local: local, free: make(chan *tensor.Workspace, 2)}
		w.free <- tensor.NewWorkspace()
		w.free <- tensor.NewWorkspace()
		t.workers = append(t.workers, w)
	}
	// Every replica starts from the same Model.Seed, so any of them seeds
	// the servers (which copy the weights).
	t.cluster = ps.NewCluster(cfg.PSShards, t.workers[0].local.Params(),
		func() nn.Optimizer { return nn.NewAdam(cfg.LR) }, cfg.Mode)
	for _, w := range t.workers {
		w.client = t.cluster.Client()
	}
	return t, nil
}

// snapshot reads the servers' current weights back into a fresh model.
func (t *trainer) snapshot() (*gnn.Model, error) {
	m, err := gnn.NewModel(t.cfg.Model)
	if err != nil {
		return nil, err
	}
	t.cluster.Snapshot(m.Params())
	return m, nil
}

// pass trains once over records, partition part of epoch e: they are dealt
// round-robin to the workers, worker w runs its share in the order keyed
// (cfg.Seed, e, part, w), and the pass ends when all have finished, so a
// pass is a barrier. All W workers join the synchronization group before
// any of them starts: in Sync mode a server averages over the workers
// registered when a push arrives, and a worker that pushed before its peers
// had joined would have its gradient applied alone. A worker leaves the
// group as soon as its share is done, which releases peers with more
// batches.
func (t *trainer) pass(e, part int, records [][]byte) error {
	shares := make([][][]byte, len(t.workers))
	for i, rec := range records {
		shares[i%len(shares)] = append(shares[i%len(shares)], rec)
	}
	for _, w := range t.workers {
		w.client.Register()
	}
	accs := make([]epochAcc, len(t.workers))
	errs := make([]error, len(t.workers))
	var wg sync.WaitGroup
	for i, w := range t.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.client.Deregister()
			key := sampling.Key(uint64(t.cfg.Seed), uint64(e), uint64(part), uint64(i))
			accs[i], errs[i] = w.run(t.cfg, t.task, shares[i], key)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		t.acc.add(accs[i])
	}
	return nil
}

// vectorized is one batch on its way from a worker's prepare stage to its
// step: the three matrices of paper §3.3.1, the per-layer aggregators, the
// supervision, and the workspace all of it lives in.
type vectorized struct {
	graph *gnn.BatchGraph
	prep  *gnn.Prepared
	// labels (class ids, LossCE) or targets (0/1 rows, BCE) supervise the
	// batch; a link batch also names each pair's endpoint rows.
	labels   []int
	targets  *tensor.Matrix
	src, dst []int
	key      uint64 // the batch key, which keys its dropout masks

	ws  *tensor.Workspace
	vec time.Duration // time spent vectorizing
}

// task is what differs between node and link training on the one worker
// loop.
type task struct {
	// assemble decodes one batch of encoded records and vectorizes it, with
	// the feature matrix drawn from ws. key is the batch key.
	assemble func(ws *tensor.Workspace, encoded [][]byte, key uint64) (*vectorized, error)
	// step runs forward, loss and backward on the replica m, leaving the
	// gradients in its parameters, and returns the batch loss.
	step func(m *gnn.Model, v *vectorized, opt gnn.RunOptions) (float64, error)
}

// nodeTask trains on TrainRecords with cfg.Loss over the target rows.
func nodeTask(cfg TrainConfig) task {
	return task{
		assemble: func(ws *tensor.Workspace, encoded [][]byte, _ uint64) (*vectorized, error) {
			recs, err := DecodeRecords(encoded)
			if err != nil {
				return nil, err
			}
			b, err := AssembleBatchWS(ws, recs, cfg.Model.Classes, cfg.Loss == LossBCE)
			if err != nil {
				return nil, err
			}
			return &vectorized{graph: b.Graph, labels: b.Labels, targets: b.LabelVecs}, nil
		},
		step: func(m *gnn.Model, v *vectorized, opt gnn.RunOptions) (float64, error) {
			st := m.Forward(v.graph, v.prep, opt)
			var loss float64
			var dLogits *tensor.Matrix
			switch cfg.Loss {
			case LossCE:
				loss, dLogits = nn.SoftmaxCrossEntropyWS(opt.Workspace, st.Logits, v.labels)
			case LossBCE:
				loss, dLogits = nn.SigmoidBCEWS(opt.Workspace, st.Logits, v.targets)
			default:
				return 0, fmt.Errorf("core: unknown loss %d", cfg.Loss)
			}
			m.Backward(st, dLogits)
			return loss, nil
		},
	}
}

// run trains the worker over its share of one pass: order it by the
// permutation keyed key, slice into batches, and for each batch vectorize
// (decode, merge, normalize the adjacency), pull the latest weights, run
// the task's step and push the gradients. Batch b's key is Key(key, b).
// Vectorization runs in its own goroutine, up to two batches ahead of model
// compute when cfg.Pipeline is set and in lock-step otherwise.
func (w *worker) run(cfg TrainConfig, tk task, recs [][]byte, key uint64) (epochAcc, error) {
	opt := gnn.RunOptions{Pruning: cfg.Pruning, Threads: cfg.AggThreads, Train: true}
	order := sampling.Perm(key, len(recs))
	depth := 0
	if cfg.Pipeline {
		depth = 2 // the prepare stage runs ahead of model computation
	}
	feed := make(chan *vectorized, depth)
	var prepErr error // written before feed is closed, read after it drains
	go func() {
		defer close(feed)
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			ws := <-w.free
			t0 := time.Now()
			idx := order[lo:min(lo+cfg.BatchSize, len(order))]
			batch := make([][]byte, len(idx))
			for k, i := range idx {
				batch[k] = recs[i]
			}
			bkey := sampling.Key(key, uint64(lo/cfg.BatchSize))
			v, err := tk.assemble(ws, batch, bkey)
			if err != nil {
				w.free <- ws
				prepErr = err
				return
			}
			o := opt
			o.Workspace = ws
			v.prep = w.local.Prepare(v.graph, o)
			v.ws, v.key, v.vec = ws, bkey, time.Since(t0)
			feed <- v
		}
	}()
	var acc epochAcc
	for v := range feed {
		t0 := time.Now()
		o := opt
		o.Workspace, o.Key = v.ws, v.key
		loss, err := w.step(tk, v, o)
		if err != nil {
			// The prepare goroutine may be parked on a send or on a
			// workspace receive: hand every workspace back until it has
			// finished. free holds at most the worker's two workspaces, so
			// these sends never block.
			go func() {
				w.free <- v.ws
				for g := range feed {
					w.free <- g.ws
				}
			}()
			return acc, err
		}
		v.ws.Reset()
		w.free <- v.ws
		acc.add(epochAcc{lossSum: loss, batches: 1, vec: v.vec, compute: time.Since(t0)})
	}
	return acc, prepErr
}

// step is one parameter-server round trip around the task's step.
func (w *worker) step(tk task, v *vectorized, opt gnn.RunOptions) (float64, error) {
	params := w.local.Params()
	if err := w.client.PullInto(params); err != nil {
		return 0, err
	}
	params.ZeroGrads()
	loss, err := tk.step(w.local, v, opt)
	if err != nil {
		return 0, err
	}
	return loss, w.client.PushGrads(params)
}

// evalDispatch scores cfg.Eval with the task-appropriate protocol: ROC-AUC
// over LinkRecords for link models, EvalMetric over TrainRecords otherwise.
func evalDispatch(cfg TrainConfig, model *gnn.Model) (float64, error) {
	ec := EvalConfig{
		BatchSize: cfg.BatchSize, Loss: cfg.Loss, Metric: cfg.EvalMetric,
		Pruning: cfg.Pruning, AggThreads: cfg.AggThreads,
	}
	if cfg.Model.EdgeHead != "" {
		return EvaluateLinks(model, cfg.Eval, ec)
	}
	return Evaluate(model, cfg.Eval, ec)
}

// EvalConfig parameterizes Evaluate.
type EvalConfig struct {
	BatchSize  int
	Loss       LossKind
	Metric     MetricKind
	Pruning    bool
	AggThreads int
}

// Evaluate scores a model over encoded GraphFeature records.
func Evaluate(model *gnn.Model, records [][]byte, cfg EvalConfig) (float64, error) {
	_, logits, labels, labelVecs, err := Predict(model, records, cfg.BatchSize, gnn.RunOptions{
		Pruning: cfg.Pruning, Threads: cfg.AggThreads,
	})
	if err != nil {
		return 0, err
	}
	switch cfg.Metric {
	case MetricAccuracy:
		return metrics.Accuracy(logits.ArgMaxRows(), labels), nil
	case MetricMicroF1:
		if labelVecs == nil {
			return 0, fmt.Errorf("core: micro-F1 needs label vectors")
		}
		return metrics.MicroF1(nn.SigmoidMatrix(logits), labelVecs, 0.5), nil
	case MetricAUC:
		scores := make([]float64, logits.Rows)
		for i := 0; i < logits.Rows; i++ {
			scores[i] = nn.Sigmoid(logits.At(i, 0))
		}
		return metrics.AUC(scores, labels), nil
	}
	return 0, fmt.Errorf("core: unknown metric %d", cfg.Metric)
}

// Predict runs batched inference over GraphFeature records, returning the
// target ids, raw logits, integer labels, and label vectors when present.
func Predict(model *gnn.Model, records [][]byte, batchSize int, opt gnn.RunOptions) ([]int64, *tensor.Matrix, []int, *tensor.Matrix, error) {
	var ids []int64
	var labels []int
	var logitParts, vecParts []*tensor.Matrix
	err := inferBatches(records, batchSize, opt, func(encoded [][]byte, opt gnn.RunOptions) error {
		recs, err := DecodeRecords(encoded)
		if err != nil {
			return err
		}
		b, err := AssembleBatchWS(opt.Workspace, recs, model.Cfg.Classes, false)
		if err != nil {
			return err
		}
		// The (small) logit block is cloned out of the workspace.
		logitParts = append(logitParts, model.Infer(b.Graph, opt).Clone())
		ids = append(ids, b.TargetIDs...)
		labels = append(labels, b.Labels...)
		if b.LabelVecs != nil {
			vecParts = append(vecParts, b.LabelVecs)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var vecs *tensor.Matrix
	if len(vecParts) > 0 {
		vecs = tensor.Concat(vecParts...)
	}
	return ids, tensor.Concat(logitParts...), labels, vecs, nil
}

// inferBatches is the one batched-inference loop: it cuts records into
// batches and hands each to batch with opt carrying a workspace that serves
// every batch, reset after each, so nothing batch keeps may live in it.
func inferBatches(records [][]byte, batchSize int, opt gnn.RunOptions, batch func(encoded [][]byte, opt gnn.RunOptions) error) error {
	if batchSize <= 0 {
		batchSize = 256
	}
	opt.Workspace = tensor.NewWorkspace()
	for lo := 0; lo < len(records); lo += batchSize {
		if err := batch(records[lo:min(lo+batchSize, len(records))], opt); err != nil {
			return err
		}
		opt.Workspace.Reset()
	}
	return nil
}
