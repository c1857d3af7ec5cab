package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/sampling"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// InferConfig parameterizes GraphInfer.
type InferConfig struct {
	// MaxNeighbors, Strategy, Seed and HubThreshold mean what they mean in
	// FlatConfig. Given the training run's MaxNeighbors, Strategy and Seed,
	// GraphInfer keeps exactly the in-edges GraphFlat kept for every node,
	// so its scores are those of a forward pass over the training-time
	// GraphFeatures bit for bit and inference stays unbiased (paper §3.4).
	MaxNeighbors int
	Strategy     sampling.Strategy
	Seed         int64
	HubThreshold int

	// KeepEmbeddings makes the prediction round carry every node's final
	// layer-K embedding through to InferResult.Embeddings — the artifact
	// the online serving tier's store is built from. Off by default:
	// batch-only scoring runs would otherwise shuffle and retain an extra
	// hidden-dim vector per node for no benefit.
	KeepEmbeddings bool

	// EdgeTargets, when non-empty, additionally scores these (src, dst)
	// pairs offline with the model's edge head (InferResult.LinkScores) —
	// the batch counterpart of the serving tier's warm /link path. Requires
	// KeepEmbeddings (pair scoring reads the final-layer embeddings) and a
	// model built with ModelConfig.EdgeHead.
	EdgeTargets []EdgeTarget

	NumMappers  int
	NumReducers int
	TempDir     string
	MaxAttempts int
	Faults      mapreduce.FaultInjector
}

func (c InferConfig) withDefaults() InferConfig {
	if c.Strategy == nil {
		c.Strategy = sampling.Uniform{}
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	return c
}

func (c InferConfig) engine() engine {
	return engine{
		what: "GraphInfer", name: "infer",
		maxNeighbors: c.MaxNeighbors, strategy: c.Strategy, seed: c.Seed, hubThreshold: c.HubThreshold,
		mr: mapreduce.Config{NumMappers: c.NumMappers, NumReducers: c.NumReducers,
			TempDir: c.TempDir, MaxAttempts: c.MaxAttempts, Faults: c.Faults},
	}
}

// InferResult is GraphInfer's output: predicted scores for every node plus
// per-round accounting for the paper's Table 5 cost comparison.
type InferResult struct {
	// Scores maps node id to its predicted score vector: sigmoid
	// probability for single-logit models, softmax distribution otherwise.
	Scores map[int64][]float64
	// Embeddings maps node id to its final (layer-K) embedding — the
	// artifact the online serving tier (internal/serve) loads into its
	// read-optimized store so warm requests skip the K embedding rounds
	// and only apply the prediction slice. Nil unless
	// InferConfig.KeepEmbeddings is set.
	Embeddings map[int64][]float64
	// LinkScores maps a requested (src, dst) pair to its sigmoid link
	// probability. Nil unless InferConfig.EdgeTargets was set; pairs with
	// an endpoint absent from the graph are dropped.
	LinkScores map[[2]int64]float64
	RoundStats []*mapreduce.Stats
	Wall       time.Duration
}

// TotalShuffledBytes sums shuffle volume over all rounds.
func (r *InferResult) TotalShuffledBytes() int64 { return shuffledBytes(r.RoundStats) }

// Infer runs the GraphInfer pipeline (paper §3.4) over node/edge tables:
// the model is hierarchically segmented into K+1 slices; the engine's K
// rounds, with a wire.Embedding as the state, merge each node's
// previous-layer in-edge embeddings and propagate the new embedding along
// out-edges, and a final round applies the prediction slice. Every node's
// layer-k embedding is computed exactly once.
func Infer(cfg InferConfig, model *gnn.Model, tables mapreduce.Input) (*InferResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.EdgeTargets) > 0 && model.Edge == nil {
		// Checked before any MapReduce round runs: at scale the pipeline is
		// minutes of compute, and this is a configuration error.
		return nil, fmt.Errorf("core: InferConfig.EdgeTargets needs a link model (set ModelConfig.EdgeHead)")
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &InferResult{Scores: make(map[int64][]float64)}
	if cfg.KeepEmbeddings {
		res.Embeddings = make(map[int64][]float64)
	}

	slices, err := model.Segment()
	if err != nil {
		return nil, fmt.Errorf("core: GraphInfer segmentation: %w", err)
	}
	// Every reduce round uses exactly its own slice, the way a real reduce
	// task ships only the parameters it needs; each task attempt runs a
	// fork of it, sharing its weights.
	k := len(slices) - 1 // number of GNN layers

	e := cfg.engine()
	p, err := e.run(tables, k, job{
		// h0 is the raw features.
		seed: func(id int64, feat []float64, deg float64) []byte {
			return wire.EncodeEmbedding(nil, &wire.Embedding{ID: id, H: feat, Deg: deg})
		},
		merge: func(round int) mergeFunc { return embeddingMerge(slices[round-1].Fork()) },
		block: inferBlock,
	})
	if err != nil {
		return nil, err
	}

	// Round K+1: prediction slice.
	res.RoundStats = p.stats
	scored, stats, err := e.runRound("infer-predict",
		mapreduce.IdentityMapper, predictReducer(slices[k], cfg.KeepEmbeddings), p.out)
	if err != nil {
		return nil, fmt.Errorf("core: GraphInfer predict: %w", err)
	}
	res.RoundStats = append(res.RoundStats, stats)
	if err := scanPairs(scored, func(kv mapreduce.KeyValue) error {
		id, err := strconv.ParseInt(kv.Key, 10, 64)
		if err != nil {
			return err
		}
		m, err := decodeMsg(kv.Value)
		if err != nil {
			return err
		}
		if m.Tag != tagScore {
			return fmt.Errorf("core: prediction round emitted tag %d", m.Tag)
		}
		res.Scores[id] = m.Scores
		if res.Embeddings != nil && len(m.State) > 0 {
			emb, err := wire.DecodeEmbedding(wire.NewReader(m.State))
			if err != nil {
				return err
			}
			res.Embeddings[id] = emb.H
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: GraphInfer collect: %w", err)
	}
	if len(cfg.EdgeTargets) > 0 {
		res.LinkScores = make(map[[2]int64]float64, len(cfg.EdgeTargets))
		for _, p := range cfg.EdgeTargets {
			hs, ok1 := res.Embeddings[p.Src]
			hd, ok2 := res.Embeddings[p.Dst]
			if !ok1 || !ok2 {
				continue // endpoint not in the graph: drop, as flatten does
			}
			res.LinkScores[[2]int64{p.Src, p.Dst}] = ScoresFromLogits([]float64{model.Edge.ScoreVec(hs, hd)})[0]
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// OriginalInferResult is the output of the naive inference module the
// paper compares GraphInfer against in Table 5: generate the GraphFeature
// of every node with GraphFlat, then forward-propagate each one separately.
// Overlapping neighborhoods are re-computed once per target, which is
// exactly the waste GraphInfer eliminates.
type OriginalInferResult struct {
	Scores map[int64][]float64
	// FlatWall/ForwardWall split total time into the GraphFlat phase and
	// the forward-propagation phase, matching Table 5's rows.
	FlatWall    time.Duration
	ForwardWall time.Duration
	FlatStats   []*mapreduce.Stats
	// ForwardBusy approximates forward-phase CPU cost (single-threaded
	// batched execution, so busy ≈ wall).
	ForwardBusy time.Duration
}

// Wall is the baseline's total wall time.
func (r *OriginalInferResult) Wall() time.Duration { return r.FlatWall + r.ForwardWall }

// OriginalInfer runs the naive GraphFeature-based inference baseline over
// every node listed in ids.
func OriginalInfer(cfg FlatConfig, model *gnn.Model, tables mapreduce.Input, ids []int64) (*OriginalInferResult, error) {
	targets := make(map[int64]Target, len(ids))
	for _, id := range ids {
		targets[id] = Target{Label: -1}
	}
	t0 := time.Now()
	flat, err := Flatten(cfg, tables, targets)
	if err != nil {
		return nil, fmt.Errorf("core: original inference flatten: %w", err)
	}
	flatWall := time.Since(t0)

	// Forward each GraphFeature independently, a batch of one — the
	// "massive repetitions of embedding inference" of paper §3.4. Batching
	// here would only merge literal duplicates; each record still carries
	// its full k-hop subgraph through vectorization, so per-record
	// forwarding is the honest baseline.
	t1 := time.Now()
	scored, logits, _, _, err := Predict(model, flat.Records, 1, gnn.RunOptions{})
	if err != nil {
		return nil, err
	}
	res := &OriginalInferResult{Scores: make(map[int64][]float64, len(scored)), FlatWall: flatWall, FlatStats: flat.RoundStats}
	for i, id := range scored {
		res.Scores[id] = ScoresFromLogits(logits.Row(i))
	}
	res.ForwardWall = time.Since(t1)
	res.ForwardBusy = res.ForwardWall
	return res, nil
}

// inferBlock bounds GraphInfer's merge blocks: a reduce task runs a slice's
// layer once over as many nodes as, with their kept in-edges, number
// inferBlock, so the layer packs its weights once per block and a sender
// several of the block's nodes share is one row of it.
const inferBlock = 8192

// inferWorkspaces holds the workspaces GraphInfer's merge blocks draw from,
// so tasks and rounds reuse one another's buffers.
var inferWorkspaces = sync.Pool{New: func() any { return tensor.NewWorkspace() }}

// embeddingMerge is GraphInfer's merge for one reduce-task attempt, over
// the attempt's own fork of the round's layer slice (Forward writes the
// layer's caches, and reduce tasks run concurrently); each block borrows a
// pooled workspace. The slice's layer turns the (k−1)-layer embeddings of a
// block's nodes and their kept in-edges' senders into the nodes' k-layer
// embeddings. After the final embedding round only the embedding itself is
// forwarded, as self info for the prediction round (paper §3.4).
func embeddingMerge(slice *gnn.Slice) mergeFunc {
	return func(block []mergeNode, final bool) error {
		ws := inferWorkspaces.Get().(*tensor.Workspace)
		defer func() {
			ws.Reset()
			inferWorkspaces.Put(ws)
		}()
		b, ids, err := blockBatch(ws, block)
		if err != nil {
			return err
		}
		rows := make([]int, len(block))
		for i, n := range block {
			rows[i], _ = slices.BinarySearch(ids, n.id)
		}
		out := slices.Clone(rows)
		slices.Sort(out)
		h := slice.Forward(ws, b, out)
		for i := range block {
			// Deg is set: the join round seeds every degree nonzero.
			n, r := &block[i], rows[i]
			n.state = wire.EncodeEmbedding(nil, &wire.Embedding{ID: n.id, H: h.Row(r), Deg: b.Deg[r]})
			if final {
				sm := flatMsg{Tag: tagSelf, State: n.state}
				n.state = sm.encode()
			}
		}
		return nil
	}
}

// predictReducer applies the prediction slice to each node's final
// embedding and emits the predicted score (paper: "the last Reduce phase is
// responsible to infer the final predicted score"). With keepEmb the
// embedding rides along so the serving tier can build its store.
func predictReducer(slice *gnn.Slice, keepEmb bool) mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		for {
			v, ok := values.Next()
			if !ok {
				return values.Err()
			}
			m, err := decodeMsg(v)
			if err != nil {
				return err
			}
			if m.Tag != tagSelf {
				return fmt.Errorf("core: predict reducer got tag %d", m.Tag)
			}
			emb, err := wire.DecodeEmbedding(wire.NewReader(m.State))
			if err != nil {
				return err
			}
			sm := flatMsg{Tag: tagScore, Scores: ScoresFromLogits(gnn.ApplyDense(slice.Head, emb.H))}
			if keepEmb {
				sm.State = m.State
			}
			if err := emit(mapreduce.KeyValue{Key: key, Value: sm.encode()}); err != nil {
				return err
			}
		}
	})
}

// ScoresFromLogits converts raw logits to predicted scores: sigmoid for a
// single output, softmax otherwise. GraphInfer's prediction round and the
// online serving tier share it so offline and online scores agree.
func ScoresFromLogits(logits []float64) []float64 {
	if len(logits) == 1 {
		return []float64{nn.Sigmoid(logits[0])}
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
