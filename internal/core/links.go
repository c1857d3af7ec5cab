package core

import (
	"fmt"
	"slices"
	"strconv"

	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/metrics"
	"agl/internal/nn"
	"agl/internal/sampling"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// EdgeTarget marks a (src, dst) pair whose merged endpoint neighborhood
// GraphFlat must materialize, with its link label: 1 for an observed
// (positive) edge, 0 for a sampled negative. The edge-level counterpart of
// Target.
type EdgeTarget = wire.EdgeTarget

// flattenEdges is GraphFlat's edge-target mode: the K merge rounds run once
// over the union of all pair endpoints (each endpoint's k-hop neighborhood
// is materialized exactly once no matter how many pairs share it), then one
// extra MapReduce pass re-keys the endpoint records by pair and merges the
// two endpoint subgraphs into a LinkRecord. The pair pass rides the same
// streaming shuffle as every other round.
func flattenEdges(cfg FlatConfig, tables mapreduce.Input) (*FlatResult, error) {
	cfg = cfg.withDefaults()
	pairs := cfg.EdgeTargets
	nodeTargets := make(map[int64]Target, 2*len(pairs))
	for _, p := range pairs {
		nodeTargets[p.Src] = Target{Label: -1}
		nodeTargets[p.Dst] = Target{Label: -1}
	}
	sub := cfg
	sub.EdgeTargets = nil
	sub.Output = nil // the output dataset receives LinkRecords, not endpoint records
	res, err := flattenNodes(sub, tables, nodeTargets)
	if err != nil {
		return nil, err
	}

	// byNode maps an endpoint to the pairs it participates in; the mapper
	// fans each endpoint record out to one shuffle key per pair.
	byNode := make(map[int64][]int, len(nodeTargets))
	for i, p := range pairs {
		byNode[p.Src] = append(byNode[p.Src], i)
		if p.Dst != p.Src {
			byNode[p.Dst] = append(byNode[p.Dst], i)
		}
	}
	pairMapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		tr, err := wire.DecodeTrainRecord(rec)
		if err != nil {
			return err
		}
		for _, pi := range byNode[tr.TargetID] {
			if err := emit(mapreduce.KeyValue{Key: strconv.Itoa(pi), Value: rec}); err != nil {
				return err
			}
		}
		return nil
	})
	pairReducer := mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		pi, err := strconv.Atoi(key)
		if err != nil || pi < 0 || pi >= len(pairs) {
			return fmt.Errorf("core: pair reducer got key %q", key)
		}
		pair := pairs[pi]
		var srcSG, dstSG *wire.Subgraph
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			tr, err := wire.DecodeTrainRecord(v)
			if err != nil {
				return err
			}
			switch tr.TargetID {
			case pair.Src:
				srcSG = tr.SG
			case pair.Dst:
				dstSG = tr.SG
			default:
				return fmt.Errorf("core: pair %d got record for node %d", pi, tr.TargetID)
			}
		}
		if err := values.Err(); err != nil {
			return err
		}
		if srcSG == nil || dstSG == nil {
			// An endpoint absent from the node table produced no record:
			// drop the pair, mirroring node-target behavior.
			return nil
		}
		merged := srcSG
		seenN, seenE := merged.NewSeenSets()
		merged.MergeInto(dstSG, seenN, seenE)
		rec := &wire.LinkRecord{Src: pair.Src, Dst: pair.Dst, Label: pair.Label, SG: merged}
		return emit(mapreduce.KeyValue{Key: key, Value: wire.EncodeLinkRecord(rec)})
	})

	cur, stats, err := sub.engine().runRound("flat-pairs", pairMapper, pairReducer,
		mapreduce.MemInput(res.Records))
	if err != nil {
		return nil, fmt.Errorf("core: GraphFlat pair merge: %w", err)
	}
	res.RoundStats = append(res.RoundStats, stats)
	return res.deliver(cfg, cur, pairs)
}

// LinkBatch is a vectorized batch of link examples: the merged subgraph of
// every pair's GraphFeature plus per-pair endpoint rows and 0/1 labels.
type LinkBatch struct {
	Graph *gnn.BatchGraph
	// SrcRows/DstRows index each pair's endpoints into Graph's rows.
	SrcRows, DstRows []int
	// Pairs holds the original (src, dst) node ids, parallel to the rows.
	Pairs [][2]int64
	// Labels is the P×1 0/1 link label matrix (BCE targets).
	Labels *tensor.Matrix
	// NodeIDs maps batch row -> original node id.
	NodeIDs []int64
	// Negatives counts the pairs appended by negative sampling.
	Negatives int
}

// AssembleLinkBatchWS merges decoded LinkRecords into a single LinkBatch,
// with the batch graph drawn from a per-step workspace (nil allocates);
// Labels stay heap-allocated for callers that outlive the workspace.
// negPerPos uniform negatives are sampled per positive record at
// batch-assembly time (the GraphSAGE/GiGL in-batch scheme): the source
// endpoint is kept and attempt a at negative k of record i draws the
// destination row from U(key, i, k, a), skipping pairs that exist as batch
// edges or positive pairs. Evaluation passes negPerPos 0.
func AssembleLinkBatchWS(ws *tensor.Workspace, recs []*wire.LinkRecord, negPerPos int, key uint64) (*LinkBatch, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: empty link batch")
	}
	g, nodeIDs, err := recordBatch(ws, recs, func(r *wire.LinkRecord) *wire.Subgraph { return r.SG })
	if err != nil {
		return nil, err
	}
	b := &LinkBatch{Graph: g, NodeIDs: nodeIDs}
	posSeen := make(map[[2]int64]bool, len(recs))
	var labels []float64
	addPair := func(srcRow, dstRow int, srcID, dstID int64, label float64) {
		b.SrcRows = append(b.SrcRows, srcRow)
		b.DstRows = append(b.DstRows, dstRow)
		b.Pairs = append(b.Pairs, [2]int64{srcID, dstID})
		labels = append(labels, label)
	}
	for _, rec := range recs {
		si, ok1 := slices.BinarySearch(nodeIDs, rec.Src)
		di, ok2 := slices.BinarySearch(nodeIDs, rec.Dst)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: pair (%d,%d) endpoints missing from merged subgraph", rec.Src, rec.Dst)
		}
		if rec.Label != 0 {
			posSeen[[2]int64{rec.Src, rec.Dst}] = true
		}
		addPair(si, di, rec.Src, rec.Dst, float64(rec.Label))
	}
	// hasEdge: a binary search of dst's CSR row, whose sources ascend.
	hasEdge := func(dst, src int) bool {
		cols, _ := g.Adj.Row(dst)
		_, ok := slices.BinarySearch(cols, src)
		return ok
	}
	if negPerPos > 0 && len(nodeIDs) > 1 {
		for i, rec := range recs {
			if rec.Label == 0 {
				continue
			}
			si, _ := slices.BinarySearch(nodeIDs, rec.Src)
			for k := 0; k < negPerPos; k++ {
				for attempt := 0; attempt < 10; attempt++ {
					di := int(sampling.U(key, uint64(i), uint64(k), uint64(attempt)) * float64(len(nodeIDs)))
					dstID := nodeIDs[di]
					// Both orientations count as "known edge": reciprocal
					// pairs are one relationship, and a sampled subgraph may
					// carry only the reverse direction (same convention as
					// datagen.Links' negative sampling).
					if di == si ||
						posSeen[[2]int64{rec.Src, dstID}] || posSeen[[2]int64{dstID, rec.Src}] ||
						hasEdge(di, si) || hasEdge(si, di) {
						continue
					}
					addPair(si, di, rec.Src, dstID, 0)
					b.Negatives++
					break
				}
			}
		}
	}
	// Every endpoint row (including sampled negatives) is a pruning target:
	// its embedding must survive all K layers.
	g.Targets = slices.Compact(slices.Sorted(slices.Values(slices.Concat(b.SrcRows, b.DstRows))))
	g.Dist = gnn.ComputeDistances(g.Adj, g.Targets)
	b.Labels = tensor.FromSlice(len(labels), 1, labels)
	return b, nil
}

// linkTask is the pairwise task of the one worker loop: LinkRecords, with
// NegativeRatio uniform negatives sampled per positive at batch-assembly
// time, trained through the GNN stack plus the edge head with sigmoid BCE.
func linkTask(cfg TrainConfig) task {
	negPerPos := max(cfg.NegativeRatio, 1)
	return task{
		assemble: func(ws *tensor.Workspace, encoded [][]byte, key uint64) (*vectorized, error) {
			recs, err := DecodeLinkRecords(encoded)
			if err != nil {
				return nil, err
			}
			b, err := AssembleLinkBatchWS(ws, recs, negPerPos, key)
			if err != nil {
				return nil, err
			}
			return &vectorized{graph: b.Graph, src: b.SrcRows, dst: b.DstRows, targets: b.Labels}, nil
		},
		step: func(m *gnn.Model, v *vectorized, opt gnn.RunOptions) (float64, error) {
			st := m.ForwardEdges(v.graph, v.prep, v.src, v.dst, opt)
			loss, dLogits := nn.SigmoidBCEWS(opt.Workspace, st.Logits, v.targets)
			m.BackwardEdges(st, dLogits)
			return loss, nil
		},
	}
}

// DecodeLinkRecords parses a slice of encoded LinkRecords.
func DecodeLinkRecords(encoded [][]byte) ([]*wire.LinkRecord, error) {
	return decodeAll(encoded, "link record", wire.DecodeLinkRecord)
}

// PredictLinks runs batched link inference over LinkRecords, returning the
// sigmoid link probability, 0/1 label and (src, dst) pair per record.
func PredictLinks(model *gnn.Model, records [][]byte, batchSize int, opt gnn.RunOptions) ([]float64, []int, [][2]int64, error) {
	if model.Edge == nil {
		return nil, nil, nil, fmt.Errorf("core: model has no edge head (set ModelConfig.EdgeHead)")
	}
	var scores []float64
	var labels []int
	var pairs [][2]int64
	err := inferBatches(records, batchSize, opt, func(encoded [][]byte, opt gnn.RunOptions) error {
		recs, err := DecodeLinkRecords(encoded)
		if err != nil {
			return err
		}
		b, err := AssembleLinkBatchWS(opt.Workspace, recs, 0, 0)
		if err != nil {
			return err
		}
		logits := model.InferEdges(b.Graph, b.SrcRows, b.DstRows, opt)
		for p := 0; p < logits.Rows; p++ {
			scores = append(scores, nn.Sigmoid(logits.At(p, 0)))
			labels = append(labels, int(b.Labels.At(p, 0)))
		}
		pairs = append(pairs, b.Pairs...)
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return scores, labels, pairs, nil
}

// EvaluateLinks scores a link model over LinkRecords with ROC-AUC. The
// records carry their own labels (held-out positives plus materialized
// negatives); no batch-time negative sampling happens here.
func EvaluateLinks(model *gnn.Model, records [][]byte, cfg EvalConfig) (float64, error) {
	scores, labels, _, err := PredictLinks(model, records, cfg.BatchSize, gnn.RunOptions{
		Pruning: cfg.Pruning, Threads: cfg.AggThreads,
	})
	if err != nil {
		return 0, err
	}
	return metrics.AUC(scores, labels), nil
}
