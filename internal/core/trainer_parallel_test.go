package core

import (
	"bytes"
	"fmt"
	"maps"
	"sync"
	"testing"

	"agl/internal/gnn"
	"agl/internal/nn"
	"agl/internal/tensor"
)

// runFixedSeedTrain trains a small GCN with dropout and aggregation
// threading enabled (the configuration that exercises every parallel and
// workspace-backed code path) and returns the final loss, the eval metric,
// and the serialized model bytes.
func runFixedSeedTrain(t *testing.T, train, test [][]byte) (float64, float64, []byte) {
	t.Helper()
	res, err := Train(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 16, Classes: 4, Layers: 2,
			Act: nn.ActReLU, Dropout: 0.2, Seed: 1,
		},
		Loss: LossCE, BatchSize: 32, Epochs: 4, LR: 0.02,
		Pipeline: true, AggThreads: 4,
		Eval: test, EvalMetric: MetricAccuracy, Seed: 2,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := gnn.MarshalModel(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	return last.Loss, last.Metric, enc
}

// TestTrainBitIdenticalAcrossParallelism is the engine's core determinism
// guarantee: because every kernel is row-partitioned (each output row is
// produced by exactly one worker in the reference accumulation order),
// fixed-seed training produces identical losses, metrics and serialized
// model bytes whether the shared pool runs serial or wide.
func TestTrainBitIdenticalAcrossParallelism(t *testing.T) {
	train, test, _ := miniCora(t, 2)
	defer tensor.SetParallelism(tensor.SetParallelism(0))

	tensor.SetParallelism(1)
	loss1, metric1, bytes1 := runFixedSeedTrain(t, train, test)

	tensor.SetParallelism(8)
	loss8, metric8, bytes8 := runFixedSeedTrain(t, train, test)

	if loss1 != loss8 {
		t.Fatalf("final loss differs across parallelism: %v (serial) vs %v (8-way)", loss1, loss8)
	}
	if metric1 != metric8 {
		t.Fatalf("eval metric differs across parallelism: %v vs %v", metric1, metric8)
	}
	if !bytes.Equal(bytes1, bytes8) {
		t.Fatal("serialized model bytes differ across parallelism settings")
	}
}

// TestTrainWorkspaceMatchesAllocating pins the workspace plumbing itself:
// a fixed-seed run must be bit-identical whether layer temporaries come
// from the per-step arena (Train's default) or from a fresh forward pass
// with no workspace at all. Both paths share one model snapshot.
func TestTrainWorkspaceMatchesAllocating(t *testing.T) {
	train, _, _ := miniCora(t, 1)
	recs, err := DecodeRecords(train[:16])
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 2,
		Act: nn.ActReLU, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Allocating path.
	b1, err := AssembleBatch(recs, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	plain := model.Infer(b1.Graph, gnn.RunOptions{})

	// Workspace path, run twice so the second pass exercises recycled
	// (dirty-capacity) buffers.
	ws := tensor.NewWorkspace()
	var wsLogits *tensor.Matrix
	for i := 0; i < 2; i++ {
		ws.Reset()
		b2, err := AssembleBatchWS(ws, recs, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		wsLogits = model.Infer(b2.Graph, gnn.RunOptions{Workspace: ws})
	}
	if tensor.MaxAbsDiff(plain, wsLogits) != 0 {
		t.Fatalf("workspace-backed forward differs from allocating forward by %v",
			tensor.MaxAbsDiff(plain, wsLogits))
	}

	// The second pass must be (nearly) allocation-free on the arena side.
	gets, misses := ws.Stats()
	if gets == 0 {
		t.Fatal("workspace unused")
	}
	if misses > gets/2 {
		t.Fatalf("workspace hit rate too low: %d misses of %d gets", misses, gets)
	}
}

// TestWarmTrainPassAllocsPerExample holds the training loop to its
// allocation ceiling. Once a trainer's workers have run one pass their
// workspaces are sized, and a further pass — decode, vectorize, pull,
// forward, backward, push for every batch — costs about 70 heap objects per
// example here: roughly 1.5 per subgraph node for decoding the record, plus
// each batch's bookkeeping. The ceiling is 200. Anything that
// allocates per feature value, per edge or per matrix row (a decoder that
// lost its pre-sizing, a kernel that stopped drawing rows from the
// workspace) costs several times that.
func TestWarmTrainPassAllocsPerExample(t *testing.T) {
	train, _, _ := miniCora(t, 2)
	tr, err := newTrainer(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 32, Classes: 4, Layers: 2,
			Act: nn.ActReLU, Dropout: 0.1, Seed: 1,
		},
		Loss: LossCE, BatchSize: 8, LR: 0.02,
		Pipeline: true, AggThreads: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := 0
	perPass := testing.AllocsPerRun(3, func() { // one warm-up pass, then three measured
		e++
		if err := tr.pass(e, 0, train); err != nil {
			t.Fatal(err)
		}
	})
	perExample := perPass / float64(len(train))
	t.Logf("%.0f allocs per warm pass over %d examples: %.1f per example", perPass, len(train), perExample)
	if perExample > 200 {
		t.Fatalf("%.1f allocs per example in a warm pass, ceiling 200", perExample)
	}
}

// TestEpochDrawsAreKeyed: epoch e's draws are a function of its key, not of
// the epochs before it. Recorded through the task's assemble, every batch of
// epoch e (its records in order, and for link batches the sampled
// negatives) is the same on a fresh trainer that runs epoch e alone as on
// one that ran epochs 1..e−1 first, for node and link tasks on two workers,
// at the first, a middle and the last epoch.
func TestEpochDrawsAreKeyed(t *testing.T) {
	nodeTrain, _, _ := miniCora(t, 2)
	linkTrain, _, linkDim := linkTrainingFixture(t, 13)
	cases := []struct {
		name string
		cfg  TrainConfig
		recs [][]byte
	}{
		{"node", TrainConfig{
			Model: gnn.Config{Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 2,
				Act: nn.ActReLU, Dropout: 0.2, Seed: 1},
			Loss: LossCE, BatchSize: 4, Workers: 2, Pipeline: true, Seed: 4,
		}, nodeTrain},
		{"link", TrainConfig{
			Model: gnn.Config{Kind: gnn.KindGCN, InDim: linkDim, Hidden: 8, Classes: 1, Layers: 2,
				Act: nn.ActTanh, Dropout: 0.2, Seed: 5, EdgeHead: gnn.EdgeHeadBilinear},
			Loss: LossBCE, BatchSize: 16, Workers: 2, Pipeline: true, NegativeRatio: 2, Seed: 4,
		}, linkTrain},
	}
	const epochs = 5
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// recorder returns a pass over c.recs whose assemble files each
			// batch's records and pairs under the batch key, one map per
			// epoch run; negatives counts the link negatives drawn.
			negatives := 0
			recorder := func() func(e int) map[uint64]string {
				tr, err := newTrainer(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var batches map[uint64]string
				assemble := tr.task.assemble
				tr.task.assemble = func(ws *tensor.Workspace, encoded [][]byte, key uint64) (*vectorized, error) {
					v, err := assemble(ws, encoded, key)
					if err == nil {
						mu.Lock()
						batches[key] = fmt.Sprintf("%x %v %v", encoded, v.src, v.dst)
						negatives += max(len(v.src)-len(encoded), 0)
						mu.Unlock()
					}
					return v, err
				}
				return func(e int) map[uint64]string {
					batches = map[uint64]string{}
					if err := tr.pass(e, 0, c.recs); err != nil {
						t.Fatal(err)
					}
					return batches
				}
			}
			carried := recorder()
			var after []map[uint64]string
			for e := 1; e <= epochs; e++ {
				after = append(after, carried(e))
			}
			for _, e := range []int{1, epochs / 2, epochs} {
				alone := recorder()(e)
				if len(alone) == 0 || !maps.Equal(alone, after[e-1]) {
					t.Fatalf("epoch %d: %d batches run alone, %d after epochs 1..%d, or they differ",
						e, len(alone), len(after[e-1]), e-1)
				}
				if e > 1 && maps.Equal(alone, after[e-2]) {
					t.Fatalf("epochs %d and %d drew the same batches", e-1, e)
				}
			}
			if c.name == "link" && negatives == 0 {
				t.Fatal("no link negatives drawn")
			}
		})
	}
}
