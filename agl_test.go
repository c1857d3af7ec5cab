package agl_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	"agl"
)

// TestPublicAPIEndToEnd exercises the full public surface: dataset
// generation, GraphFlat, GraphTrainer, model save/load, GraphInfer.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: 500, FeatDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := agl.BinaryTargets(ds, ds.Train)
	flat, err := agl.Flatten(agl.FlatConfig{
		Hops: 2, MaxNeighbors: 10, Seed: 2, TempDir: t.TempDir(),
	}, ds.G, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Records) != len(ds.Train) {
		t.Fatalf("records=%d want %d", len(flat.Records), len(ds.Train))
	}

	testFlat, err := agl.Flatten(agl.FlatConfig{
		Hops: 2, MaxNeighbors: 10, Seed: 2, TempDir: t.TempDir(),
	}, ds.G, agl.BinaryTargets(ds, ds.Test))
	if err != nil {
		t.Fatal(err)
	}

	res, err := agl.Train(agl.TrainConfig{
		Model: agl.ModelConfig{
			Kind: agl.GAT, InDim: 8, Hidden: 8, Classes: 1, Layers: 2,
			Act: agl.ActReLU, Seed: 3,
		},
		Loss: agl.LossBCE, BatchSize: 32, Epochs: 6, LR: 0.02,
		Workers: 2, Mode: agl.Async, Pipeline: true, Pruning: true, AggThreads: 2,
		Eval: testFlat.Records, EvalMetric: agl.MetricAUC, Seed: 4,
	}, flat.Records)
	if err != nil {
		t.Fatal(err)
	}
	auc := res.History[len(res.History)-1].Metric
	if auc < 0.55 {
		t.Fatalf("AUC %v barely above random", auc)
	}

	// Save/load round trip.
	var buf bytes.Buffer
	if err := agl.SaveModel(res.Model, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := agl.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Whole-graph inference with the loaded model; keep embeddings so the
	// serving tier can build its store from them below.
	inf, err := agl.Infer(agl.InferConfig{
		MaxNeighbors: 10, Seed: 2, TempDir: t.TempDir(), KeepEmbeddings: true,
	}, loaded, ds.G)
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Scores) != ds.G.NumNodes() {
		t.Fatalf("scored %d of %d nodes", len(inf.Scores), ds.G.NumNodes())
	}
	for id, s := range inf.Scores {
		if len(s) != 1 || s[0] < 0 || s[0] > 1 {
			t.Fatalf("node %d: bad score %v", id, s)
		}
	}

	// Online serving over the offline artifacts: warm requests off the
	// embedding store must agree with the batch GraphInfer scores.
	store, err := agl.NewEmbeddingStore(inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "store.agl")
	if err := store.Save(storePath); err != nil {
		t.Fatal(err)
	}
	store, err = agl.OpenEmbeddingStore(storePath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := agl.Serve(agl.ServeConfig{MaxNeighbors: 10, Seed: 2}, loaded, ds.G, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := ds.G.IDs()[:20]
	scores, errs := srv.ScoreMany(context.Background(), ids)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if math.Abs(scores[i][0]-inf.Scores[id][0]) > 1e-12 {
			t.Fatalf("node %d: served %v offline %v", id, scores[i][0], inf.Scores[id][0])
		}
	}
	if st := srv.Stats(); st.Warm != int64(len(ids)) {
		t.Fatalf("expected %d warm scores, got %+v", len(ids), st)
	}

	// Stream a mutation through the public API: the affected node must be
	// invalidated and rescored, the version must advance.
	feat := make([]float64, ds.G.FeatureDim())
	res2, err := srv.Apply(context.Background(), []agl.Mutation{agl.UpdateNodeFeat(ids[0], feat)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied != 1 || res2.Version != 1 || res2.Invalidated == 0 {
		t.Fatalf("mutation did not invalidate: %+v", res2)
	}
	if _, err := srv.Score(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Cold == 0 || st.Version != 1 {
		t.Fatalf("mutated node did not recompute cold: %+v", st)
	}
}

// TestPublicAPIConfigValidation: negative knobs fail fast with descriptive
// errors instead of being silently clamped.
func TestPublicAPIConfigValidation(t *testing.T) {
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: 50, FeatDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := agl.BinaryTargets(ds, ds.Train)
	if _, err := agl.Flatten(agl.FlatConfig{Hops: -1}, ds.G, targets); err == nil {
		t.Fatal("negative Hops accepted")
	}
	if _, err := agl.Flatten(agl.FlatConfig{MaxNeighbors: -2}, ds.G, targets); err == nil {
		t.Fatal("negative MaxNeighbors accepted")
	}
	model, err := agl.NewModel(agl.ModelConfig{Kind: agl.GCN, InDim: 4, Hidden: 4, Classes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agl.Infer(agl.InferConfig{NumReducers: -4}, model, ds.G); err == nil {
		t.Fatal("negative NumReducers accepted")
	}
	cfg := agl.TrainConfig{Model: agl.ModelConfig{Kind: agl.GCN, InDim: 4, Hidden: 4, Classes: 1}}
	cfg.Workers = -1
	if _, err := agl.Train(cfg, [][]byte{{1}}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	cfg.Workers = 0
	cfg.LR = math.Inf(1)
	if _, err := agl.Train(cfg, [][]byte{{1}}); err == nil {
		t.Fatal("infinite LR accepted")
	}
	if _, err := agl.Serve(agl.ServeConfig{CacheSize: -1}, model, ds.G, nil); err == nil {
		t.Fatal("negative CacheSize accepted")
	}
}

func TestPublicAPIMulticlass(t *testing.T) {
	ds, err := agl.NewCora(agl.CoraConfig{
		Nodes: 150, Edges: 450, FeatDim: 24, Classes: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := agl.Flatten(agl.FlatConfig{Hops: 1, Seed: 6, TempDir: t.TempDir()},
		ds.G, agl.ClassTargets(ds, ds.Train))
	if err != nil {
		t.Fatal(err)
	}
	res, err := agl.Train(agl.TrainConfig{
		Model: agl.ModelConfig{
			Kind: agl.GCN, InDim: 24, Hidden: 8, Classes: 3, Layers: 1,
			Act: agl.ActReLU, Seed: 7,
		},
		Loss: agl.LossCE, Epochs: 5, LR: 0.02, Seed: 8,
	}, flat.Records)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
		t.Fatal("loss did not decrease")
	}
	acc, err := agl.Evaluate(res.Model, flat.Records, agl.EvalConfig{Metric: agl.MetricAccuracy})
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0.34 {
		t.Fatalf("train accuracy %v at random level", acc)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := agl.NewGraph([]agl.Node{{ID: 1}}, []agl.Edge{{Src: 1, Dst: 9}}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestPublicAPILinkPrediction drives the edge-level workload end to end
// through the public API: held-out-edge split, edge-target flatten,
// pairwise training, AUC evaluation, and online pair scoring.
func TestPublicAPILinkPrediction(t *testing.T) {
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: 400, FeatDim: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	links, err := agl.NewLinks(ds, agl.LinkConfig{TestFrac: 0.1, NegPerPos: 1, MaxTrainPairs: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	flatCfg := agl.FlatConfig{Hops: 2, TempDir: t.TempDir()}
	flatCfg.EdgeTargets = links.Train
	trainFlat, err := agl.Flatten(flatCfg, links.G, nil)
	if err != nil {
		t.Fatal(err)
	}
	flatCfg.EdgeTargets = links.Test
	testFlat, err := agl.Flatten(flatCfg, links.G, nil)
	if err != nil {
		t.Fatal(err)
	}

	res, err := agl.Train(agl.TrainConfig{
		Model: agl.ModelConfig{
			Kind: agl.GCN, InDim: links.G.FeatureDim(), Hidden: 8, Classes: 1,
			Layers: 2, Act: agl.ActTanh, Seed: 3, EdgeHead: agl.EdgeHeadBilinear,
		},
		Loss: agl.LossBCE, Epochs: 8, BatchSize: 32, LR: 0.05,
		Workers: 2, NegativeRatio: 2, Seed: 3,
	}, trainFlat.Records)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := agl.EvaluateLinks(res.Model, testFlat.Records, agl.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.6 {
		t.Fatalf("link AUC %.3f, want > 0.6", auc)
	}

	// Serve pairs online: warm off the embedding store.
	inf, err := agl.Infer(agl.InferConfig{KeepEmbeddings: true, Seed: 3}, res.Model, links.G)
	if err != nil {
		t.Fatal(err)
	}
	store, err := agl.NewEmbeddingStore(inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := agl.Serve(agl.ServeConfig{Seed: 3}, res.Model, links.G, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := links.Test[0]
	logit, err := srv.ScoreLink(context.Background(), p.Src, p.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(logit) {
		t.Fatal("NaN link score")
	}
	if srv.Stats().LinkWarm != 1 {
		t.Fatalf("expected warm pair scoring, got %+v", srv.Stats())
	}

	// Offline pair scoring through GraphInfer agrees with the server.
	inf2, err := agl.Infer(agl.InferConfig{
		KeepEmbeddings: true, Seed: 3,
		EdgeTargets: []agl.EdgeTarget{{Src: p.Src, Dst: p.Dst}},
	}, res.Model, links.G)
	if err != nil {
		t.Fatal(err)
	}
	score := inf2.LinkScores[[2]int64{p.Src, p.Dst}]
	if math.Abs(score-1/(1+math.Exp(-logit))) > 1e-9 {
		t.Fatalf("offline pair score %v disagrees with online logit %v", score, logit)
	}

	// LinkTargets builds positive targets from edges.
	lt := agl.LinkTargets(links.G.Edges[:3])
	for _, p := range lt {
		if p.Label != 1 {
			t.Fatal("LinkTargets must label positives 1")
		}
	}
}
