package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"agl/internal/datagen"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/ps"
	"agl/internal/sampling"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// chainGraph builds 0->1->2->3->4 (edges point forward: src=i, dst=i+1).
func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var nodes []graph.Node
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: []float64{float64(i), 1}})
		if i > 0 {
			edges = append(edges, graph.Edge{Src: int64(i - 1), Dst: int64(i), Weight: 1})
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func flatten(t *testing.T, g *graph.Graph, cfg FlatConfig, targets map[int64]Target) *FlatResult {
	t.Helper()
	cfg.TempDir = t.TempDir()
	res, err := Flatten(cfg, mapreduce.MemInput(TableRecords(g)), targets)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func recordByID(t *testing.T, res *FlatResult, id int64) *wire.TrainRecord {
	t.Helper()
	for _, enc := range res.Records {
		rec, err := wire.DecodeTrainRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		if rec.TargetID == id {
			return rec
		}
	}
	t.Fatalf("no record for target %d", id)
	return nil
}

func nodeIDs(sg *wire.Subgraph) []int64 {
	var ids []int64
	for _, n := range sg.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestTableRowRoundTrip(t *testing.T) {
	n := graph.Node{ID: 7, Feat: []float64{1.5, -2}}
	row, err := DecodeTableRow(EncodeNodeRow(n))
	if err != nil || !row.IsNode || row.Node.ID != 7 || row.Node.Feat[1] != -2 {
		t.Fatalf("node row: %+v err=%v", row, err)
	}
	e := graph.Edge{Src: 1, Dst: 2, Weight: 0.25}
	row, err = DecodeTableRow(EncodeEdgeRow(e))
	if err != nil || row.IsNode || row.Edge.Dst != 2 || row.Edge.Weight != 0.25 {
		t.Fatalf("edge row: %+v err=%v", row, err)
	}
	if _, err := DecodeTableRow([]byte("garbage")); err == nil {
		t.Fatal("expected error")
	}
}

func TestWeightedInDegrees(t *testing.T) {
	g := chainGraph(t, 4)
	w, u, err := WeightedInDegrees(mapreduce.MemInput(TableRecords(g)),
		mapreduce.Config{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 has no in-edges: weighted degree 1 (self term), count 0.
	if w[0] != 1 || u[0] != 0 {
		t.Fatalf("node 0: w=%v u=%v", w[0], u[0])
	}
	if w[2] != 2 || u[2] != 1 {
		t.Fatalf("node 2: w=%v u=%v", w[2], u[2])
	}
}

func TestFlattenKHopChain(t *testing.T) {
	g := chainGraph(t, 5)
	targets := map[int64]Target{4: {Label: 1}}
	for hops := 1; hops <= 3; hops++ {
		res := flatten(t, g, FlatConfig{Hops: hops}, targets)
		if len(res.Records) != 1 {
			t.Fatalf("hops=%d records=%d", hops, len(res.Records))
		}
		rec := recordByID(t, res, 4)
		ids := nodeIDs(rec.SG)
		// k-hop of node 4 along the chain: {4-k .. 4}.
		want := []int64{}
		for i := 4 - hops; i <= 4; i++ {
			want = append(want, int64(i))
		}
		if fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("hops=%d nodes=%v want %v", hops, ids, want)
		}
		if len(rec.SG.Edges) != hops {
			t.Fatalf("hops=%d edges=%d want %d", hops, len(rec.SG.Edges), hops)
		}
		if rec.Label != 1 {
			t.Fatalf("label=%d", rec.Label)
		}
		// Every node carries its features.
		for _, n := range rec.SG.Nodes {
			if len(n.Feat) != 2 || n.Feat[0] != float64(n.ID) {
				t.Fatalf("node %d features missing: %v", n.ID, n.Feat)
			}
		}
	}
}

func TestFlattenDiamondCollectsAllPaths(t *testing.T) {
	// Diamond: 1->3, 2->3, 0->1, 0->2; 2-hop of 3 = {0,1,2,3} with 4 edges.
	nodes := []graph.Node{{ID: 0, Feat: []float64{0}}, {ID: 1, Feat: []float64{1}},
		{ID: 2, Feat: []float64{2}}, {ID: 3, Feat: []float64{3}}}
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := flatten(t, g, FlatConfig{Hops: 2}, map[int64]Target{3: {}})
	rec := recordByID(t, res, 3)
	if fmt.Sprint(nodeIDs(rec.SG)) != "[0 1 2 3]" {
		t.Fatalf("nodes: %v", nodeIDs(rec.SG))
	}
	if len(rec.SG.Edges) != 4 {
		t.Fatalf("edges: %d want 4", len(rec.SG.Edges))
	}
}

func TestFlattenOnlyTargetsEmitted(t *testing.T) {
	g := chainGraph(t, 6)
	res := flatten(t, g, FlatConfig{Hops: 2}, map[int64]Target{2: {}, 5: {}})
	if len(res.Records) != 2 {
		t.Fatalf("records=%d want 2", len(res.Records))
	}
}

func TestFlattenSamplingCapsInDegree(t *testing.T) {
	// Star: 30 leaves all pointing at hub 999.
	nodes := []graph.Node{{ID: 999, Feat: []float64{9}}}
	var edges []graph.Edge
	for i := 0; i < 30; i++ {
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: []float64{float64(i)}})
		edges = append(edges, graph.Edge{Src: int64(i), Dst: 999, Weight: float64(i + 1)})
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := flatten(t, g, FlatConfig{Hops: 1, MaxNeighbors: 5, Seed: 11}, map[int64]Target{999: {}})
	rec := recordByID(t, res, 999)
	if len(rec.SG.Edges) != 5 {
		t.Fatalf("sampled edges=%d want 5", len(rec.SG.Edges))
	}
	if len(rec.SG.Nodes) != 6 { // hub + 5 sampled leaves
		t.Fatalf("nodes=%d want 6", len(rec.SG.Nodes))
	}
	// Deterministic given the seed.
	res2 := flatten(t, g, FlatConfig{Hops: 1, MaxNeighbors: 5, Seed: 11}, map[int64]Target{999: {}})
	rec2 := recordByID(t, res2, 999)
	if fmt.Sprint(nodeIDs(rec.SG)) != fmt.Sprint(nodeIDs(rec2.SG)) {
		t.Fatal("sampling not deterministic across runs")
	}
	// Different seed, (very likely) different choice.
	res3 := flatten(t, g, FlatConfig{Hops: 1, MaxNeighbors: 5, Seed: 12}, map[int64]Target{999: {}})
	rec3 := recordByID(t, res3, 999)
	if fmt.Sprint(nodeIDs(rec.SG)) == fmt.Sprint(nodeIDs(rec3.SG)) {
		t.Log("warning: same sample under different seed (possible but unlikely)")
	}

	// MaxNeighbors is a per-node cap, not a per-round one: over several
	// rounds no node of any record — target or interior — exceeds it.
	ug := buildInferGraph(t)
	all := map[int64]Target{}
	for _, id := range ug.IDs() {
		all[id] = Target{}
	}
	for _, hops := range []int{2, 3} {
		res := flatten(t, ug, FlatConfig{Hops: hops, MaxNeighbors: 3, Seed: 11}, all)
		for _, raw := range res.Records {
			rec, err := wire.DecodeTrainRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			inCount := map[int64]int{}
			for _, e := range rec.SG.Edges {
				if inCount[e.Dst]++; inCount[e.Dst] > 3 {
					t.Fatalf("hops %d target %d: node %d has more than 3 in-edges", hops, rec.TargetID, e.Dst)
				}
			}
		}
	}
}

func TestFlattenWeightedSamplingPrefersHeavy(t *testing.T) {
	nodes := []graph.Node{{ID: 100, Feat: []float64{0}}}
	var edges []graph.Edge
	for i := 0; i < 20; i++ {
		w := 0.001
		if i >= 18 {
			w = 1000 // two dominant edges
		}
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: []float64{1}})
		edges = append(edges, graph.Edge{Src: int64(i), Dst: 100, Weight: w})
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := flatten(t, g, FlatConfig{
		Hops: 1, MaxNeighbors: 2, Seed: 3, Strategy: sampling.Weighted{},
	}, map[int64]Target{100: {}})
	rec := recordByID(t, res, 100)
	for _, e := range rec.SG.Edges {
		if e.Src != 18 && e.Src != 19 {
			t.Fatalf("weighted sampling kept light edge from %d", e.Src)
		}
	}
}

func TestFlattenReindexingHandlesHubs(t *testing.T) {
	// Hub with in-degree 40, threshold 10 -> 4 suffix shards.
	nodes := []graph.Node{{ID: 500, Feat: []float64{5}}}
	var edges []graph.Edge
	for i := 0; i < 40; i++ {
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: []float64{float64(i)}})
		edges = append(edges, graph.Edge{Src: int64(i), Dst: 500, Weight: 1})
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := flatten(t, g, FlatConfig{
		Hops: 1, MaxNeighbors: 8, HubThreshold: 10, Seed: 7,
	}, map[int64]Target{500: {}})
	if res.HubCount != 1 {
		t.Fatalf("hub count=%d", res.HubCount)
	}
	rec := recordByID(t, res, 500)
	if len(rec.SG.Edges) != 8 {
		t.Fatalf("re-indexed hub kept %d edges, want the cap 8", len(rec.SG.Edges))
	}
	// The re-index round appears in the accounting: join, re-index, merge.
	if len(res.RoundStats) != 3 {
		t.Fatalf("%d rounds, want join, re-index and merge", len(res.RoundStats))
	}
}

func TestFlattenNonHubUnaffectedByReindexing(t *testing.T) {
	g := chainGraph(t, 5)
	plain := flatten(t, g, FlatConfig{Hops: 2, Seed: 1}, map[int64]Target{4: {}})
	reidx := flatten(t, g, FlatConfig{Hops: 2, Seed: 1, HubThreshold: 100}, map[int64]Target{4: {}})
	a := recordByID(t, plain, 4)
	b := recordByID(t, reidx, 4)
	if fmt.Sprint(nodeIDs(a.SG)) != fmt.Sprint(nodeIDs(b.SG)) || len(a.SG.Edges) != len(b.SG.Edges) {
		t.Fatal("re-indexing changed a non-hub neighborhood")
	}
}

func TestFlattenSurvivesTaskFailures(t *testing.T) {
	g := chainGraph(t, 6)
	var injected int32
	faults := func(kind string, idx, attempt int) error {
		// Fail the first attempt of every task once, across all rounds.
		if attempt == 0 && atomic.AddInt32(&injected, 1) < 100 {
			return errors.New("injected")
		}
		return nil
	}
	clean := flatten(t, g, FlatConfig{Hops: 2}, map[int64]Target{5: {}})
	faulty := flatten(t, g, FlatConfig{Hops: 2, Faults: faults, MaxAttempts: 3}, map[int64]Target{5: {}})
	a := recordByID(t, clean, 5)
	b := recordByID(t, faulty, 5)
	if fmt.Sprint(nodeIDs(a.SG)) != fmt.Sprint(nodeIDs(b.SG)) {
		t.Fatalf("fault injection changed output: %v vs %v", nodeIDs(a.SG), nodeIDs(b.SG))
	}
	if atomic.LoadInt32(&injected) == 0 {
		t.Fatal("faults never injected")
	}
}

func TestAssembleBatchMergesOverlap(t *testing.T) {
	r1 := &wire.TrainRecord{TargetID: 1, Label: 0, SG: &wire.Subgraph{
		Target: 1,
		Nodes:  []wire.SGNode{{ID: 1, Feat: []float64{1, 0}}, {ID: 2, Feat: []float64{2, 0}}},
		Edges:  []wire.SGEdge{{Src: 2, Dst: 1, Weight: 1}},
	}}
	r2 := &wire.TrainRecord{TargetID: 3, Label: 1, SG: &wire.Subgraph{
		Target: 3,
		Nodes:  []wire.SGNode{{ID: 3, Feat: []float64{3, 0}}, {ID: 2, Feat: []float64{2, 0}}},
		Edges:  []wire.SGEdge{{Src: 2, Dst: 3, Weight: 1}},
	}}
	b, err := AssembleBatch([]*wire.TrainRecord{r1, r2}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph.Adj.NumRows != 3 { // node 2 deduplicated
		t.Fatalf("rows=%d want 3", b.Graph.Adj.NumRows)
	}
	if b.Graph.Adj.NNZ() != 2 {
		t.Fatalf("nnz=%d want 2", b.Graph.Adj.NNZ())
	}
	if len(b.Graph.Targets) != 2 || b.Labels[1] != 1 {
		t.Fatalf("targets/labels wrong: %+v", b)
	}
	// Distances: targets 0, neighbors 1.
	for i, tgt := range b.Graph.Targets {
		if b.Graph.Dist[tgt] != 0 {
			t.Fatalf("target %d dist %d", i, b.Graph.Dist[tgt])
		}
	}
}

func TestAssembleBatchEmptyErrors(t *testing.T) {
	if _, err := AssembleBatch(nil, 2, false); err == nil {
		t.Fatal("expected error")
	}
}

// miniCora builds a small learnable dataset plus its flattened records.
func miniCora(t *testing.T, hops int) (train, test [][]byte, ds *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Cora(datagen.CoraConfig{
		Nodes: 240, Edges: 700, FeatDim: 48, Classes: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[int64]Target{}
	for _, id := range ds.Train {
		targets[id] = Target{Label: int64(ds.LabelOf(id))}
	}
	cfg := FlatConfig{Hops: hops, Seed: 5, TempDir: t.TempDir()}
	res, err := Flatten(cfg, mapreduce.MemInput(TableRecords(ds.G)), targets)
	if err != nil {
		t.Fatal(err)
	}
	testTargets := map[int64]Target{}
	for _, id := range ds.Test {
		testTargets[id] = Target{Label: int64(ds.LabelOf(id))}
	}
	res2, err := Flatten(cfg, mapreduce.MemInput(TableRecords(ds.G)), testTargets)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records, res2.Records, ds
}

func TestTrainLearnsMiniCora(t *testing.T) {
	train, test, _ := miniCora(t, 2)
	res, err := Train(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 16, Classes: 4, Layers: 2,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: 32, Epochs: 25, LR: 0.02,
		Eval: test, EvalMetric: MetricAccuracy, Seed: 2,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0].Loss
	last := res.History[len(res.History)-1].Loss
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	final := res.History[len(res.History)-1]
	if !final.HasMetric || final.Metric < 0.55 {
		t.Fatalf("test accuracy %v too low (random = 0.25)", final.Metric)
	}
}

func TestTrainMultiWorkerModes(t *testing.T) {
	train, test, _ := miniCora(t, 1)
	for _, mode := range []ps.Mode{ps.Async, ps.Sync} {
		res, err := Train(TrainConfig{
			Model: gnn.Config{
				Kind: gnn.KindSAGE, InDim: 48, Hidden: 12, Classes: 4, Layers: 1,
				Act: nn.ActReLU, Seed: 1,
			},
			Loss: LossCE, BatchSize: 16, Epochs: 6, LR: 0.02,
			Workers: 3, PSShards: 2, Mode: mode,
			Eval: test, EvalMetric: MetricAccuracy, Seed: 3,
		}, train)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
			t.Fatalf("mode %v: loss did not decrease", mode)
		}
		if res.PSBytesOut == 0 || res.PSBytesIn == 0 {
			t.Fatalf("mode %v: no PS traffic recorded", mode)
		}
	}
}

// TestSyncWorkersAllRegisterBeforeAnyPush: in Sync mode a server averages
// over the workers registered when a push arrives, so every worker must have
// joined before the first push of a pass, or that push is applied alone as an
// extra, unaveraged step. With equal batch counts per worker, every shard
// must therefore take exactly batches-per-worker steps per epoch.
func TestSyncWorkersAllRegisterBeforeAnyPush(t *testing.T) {
	train, _, _ := miniCora(t, 1)
	const workers, batch, epochs = 3, 4, 5
	perWorker := len(train) / workers / batch
	if perWorker < 2 {
		t.Fatalf("only %d records", len(train))
	}
	train = train[:workers*batch*perWorker]
	tr, err := newTrainer(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindSAGE, InDim: 48, Hidden: 12, Classes: 4, Layers: 1,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: batch, LR: 0.02, Pipeline: true,
		Workers: workers, PSShards: 2, Mode: ps.Sync, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		if err := tr.pass(e, 0, train); err != nil {
			t.Fatal(err)
		}
	}
	stepped := 0
	for i := 0; i < tr.cluster.NumShards(); i++ {
		shard := tr.cluster.Shard(i)
		if len(shard.Names()) == 0 {
			continue
		}
		stepped++
		if got, want := shard.Version(), int64(perWorker*epochs); got != want {
			t.Errorf("shard %d took %d steps, want %d (%d batches per worker x %d epochs)", i, got, want, perWorker, epochs)
		}
	}
	if stepped == 0 {
		t.Fatal("no shard owns a parameter")
	}
}

// flattenOnePartition flattens into an output dataset with Partitions left
// at 0 — GraphFlat's default layout, one partition — and returns it with
// its records in on-disk order.
func flattenOnePartition(t *testing.T, g *graph.Graph, cfg FlatConfig, targets map[int64]Target) (*PartitionSet, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flat")
	out, err := dfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TempDir, cfg.Output = t.TempDir(), out
	if _, err := Flatten(cfg, mapreduce.MemInput(TableRecords(g)), targets); err != nil {
		t.Fatal(err)
	}
	parts, err := OpenPartitions(path)
	if err != nil {
		t.Fatal(err)
	}
	if parts.NumPartitions() != 1 {
		t.Fatalf("default layout has %d partitions, want 1", parts.NumPartitions())
	}
	recs, err := parts.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	return parts, recs
}

// TestTrainPipelineDoesNotChangeResults: for a fixed seed and one worker the
// trained model is a function of the records alone. Neither the training
// pipeline nor the entry point may change it: Train with and without
// Pipeline, Train with EvalEvery 1 (which evaluates every epoch) and
// TrainPartitions over GraphFlat's default one-partition dataset must
// return byte-identical models and identical per-epoch losses, with dropout
// on (so no epoch may replay another's masks) and for the link task too (so
// the negative-sampling stream is carried the same way). The dataset's one
// partition holds the in-memory Flatten's Records byte for byte and in
// order, so graphtrainer over a default graphflat output trains exactly
// what Train over the in-memory records trains.
func TestTrainPipelineDoesNotChangeResults(t *testing.T) {
	cora, err := datagen.Cora(datagen.CoraConfig{Nodes: 240, Edges: 700, FeatDim: 48, Classes: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	coraTargets := map[int64]Target{}
	for _, id := range cora.Train {
		coraTargets[id] = Target{Label: int64(cora.LabelOf(id))}
	}
	uug, err := datagen.UUG(datagen.UUGConfig{Nodes: 150, FeatDim: 6, EdgeFeatDim: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	uugTargets := map[int64]Target{}
	for _, id := range uug.Train {
		y := uug.LabelOf(id)
		uugTargets[id] = Target{Label: int64(y), LabelVec: []float64{float64(y)}}
	}
	linkG, linkPairs, _ := linkFixtureGraph(t, 7)

	cases := []struct {
		name    string
		g       *graph.Graph
		flat    FlatConfig
		targets map[int64]Target
		cfg     TrainConfig
	}{
		{"GCN", cora.G, FlatConfig{Hops: 1, Seed: 5}, coraTargets, TrainConfig{
			Model: gnn.Config{Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1, Act: nn.ActReLU},
			Loss:  LossCE, EvalMetric: MetricAccuracy, BatchSize: 8, Epochs: 5,
		}},
		{"GAT+edge features", uug.G, FlatConfig{Hops: 2, Seed: 5}, uugTargets, TrainConfig{
			Model: gnn.Config{Kind: gnn.KindGAT, InDim: 6, Hidden: 8, Classes: 1, Layers: 2, Heads: 2, EdgeDim: 4, Act: nn.ActTanh},
			Loss:  LossBCE, EvalMetric: MetricAUC, BatchSize: 8, Epochs: 3,
		}},
		{"link", linkG, FlatConfig{Hops: 2, EdgeTargets: linkPairs}, nil, TrainConfig{
			Model: gnn.Config{Kind: gnn.KindGCN, InDim: 2, Hidden: 8, Classes: 1, Layers: 2, Act: nn.ActTanh, EdgeHead: gnn.EdgeHeadBilinear},
			Loss:  LossBCE, EvalMetric: MetricAUC, BatchSize: 32, Epochs: 3, NegativeRatio: 2, Pruning: true,
		}},
	}
	for _, tc := range cases {
		parts, recs := flattenOnePartition(t, tc.g, tc.flat, tc.targets)
		mem := flatten(t, tc.g, tc.flat, tc.targets).Records
		if len(recs) != len(mem) {
			t.Fatalf("%s: dataset holds %d records, in-memory Flatten %d", tc.name, len(recs), len(mem))
		}
		for i := range mem {
			if !bytes.Equal(recs[i], mem[i]) {
				t.Fatalf("%s: record %d of the dataset differs from in-memory Records[%d]", tc.name, i, i)
			}
		}
		cfg := tc.cfg
		cfg.Model.Seed, cfg.Model.Dropout = 1, 0.3
		cfg.LR, cfg.Seed, cfg.Eval = 0.02, 4, recs
		pipelined := cfg
		pipelined.Pipeline = true
		everyEpoch := cfg
		everyEpoch.EvalEvery = 1
		runs := []struct {
			name string
			run  func() (*TrainResult, error)
		}{
			{"Train", func() (*TrainResult, error) { return Train(cfg, mem) }},
			{"Train pipelined", func() (*TrainResult, error) { return Train(pipelined, mem) }},
			{"Train EvalEvery 1", func() (*TrainResult, error) { return Train(everyEpoch, mem) }},
			{"TrainPartitions", func() (*TrainResult, error) { return TrainPartitions(pipelined, parts) }},
		}
		var wantModel []byte
		var want []EpochStats
		for _, r := range runs {
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, r.name, err)
			}
			enc, err := gnn.MarshalModel(res.Model)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range res.History {
				if st.Duration <= 0 {
					t.Errorf("%s %s: epoch %d has no Duration", tc.name, r.name, st.Epoch)
				}
			}
			if want == nil {
				if len(recs) < 3*cfg.BatchSize {
					t.Fatalf("%s: only %d records, want several batches per epoch", tc.name, len(recs))
				}
				wantModel, want = enc, res.History
				continue
			}
			if len(res.History) != len(want) {
				t.Fatalf("%s %s: %d epochs, Train ran %d", tc.name, r.name, len(res.History), len(want))
			}
			for e, st := range res.History {
				if st.Loss != want[e].Loss {
					t.Errorf("%s %s: epoch %d loss %v, Train had %v", tc.name, r.name, e+1, st.Loss, want[e].Loss)
				}
			}
			if last := len(want) - 1; res.History[last].Metric != want[last].Metric {
				t.Errorf("%s %s: final metric %v, Train had %v", tc.name, r.name, res.History[last].Metric, want[last].Metric)
			}
			if !bytes.Equal(enc, wantModel) {
				t.Errorf("%s %s: model bytes differ from Train's", tc.name, r.name)
			}
		}
	}
}

func TestTrainPruningAndPartitioningConsistent(t *testing.T) {
	train, test, _ := miniCora(t, 2)
	var accs []float64
	for _, opt := range []TrainConfig{
		{},
		{Pruning: true},
		{AggThreads: 4},
		{Pruning: true, AggThreads: 4},
	} {
		cfg := TrainConfig{
			Model: gnn.Config{
				Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 2,
				Act: nn.ActReLU, Seed: 1,
			},
			Loss: LossCE, BatchSize: 32, Epochs: 5, LR: 0.02,
			Pruning: opt.Pruning, AggThreads: opt.AggThreads,
			Eval: test, EvalMetric: MetricAccuracy, Seed: 5,
		}
		res, err := Train(cfg, train)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, res.History[len(res.History)-1].Metric)
	}
	for i := 1; i < len(accs); i++ {
		if math.Abs(accs[i]-accs[0]) > 1e-9 {
			t.Fatalf("optimization %d changed results: %v vs %v", i, accs[i], accs[0])
		}
	}
}

func TestTrainEvalEveryProducesCurve(t *testing.T) {
	train, test, _ := miniCora(t, 1)
	res, err := Train(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: 16, Epochs: 4, LR: 0.02,
		Workers: 2, Eval: test, EvalMetric: MetricAccuracy, EvalEvery: 1, Seed: 6,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 4 {
		t.Fatalf("history len %d", len(res.History))
	}
	for _, st := range res.History {
		if !st.HasMetric {
			t.Fatalf("epoch %d missing metric", st.Epoch)
		}
	}
}

// buildInferGraph returns a small weighted digraph for inference tests.
func buildInferGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 80, FeatDim: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return ds.G
}

// directForward runs model over the whole graph g as one batch, every node a
// target, with E_B: the reference GraphInfer must reproduce.
func directForward(g *graph.Graph, model *gnn.Model) *gnn.ForwardState {
	adj := g.CSR()
	x := make([][]float64, g.NumNodes())
	for i, n := range g.Nodes {
		x[i] = n.Feat
	}
	targets := make([]int, g.NumNodes())
	for i := range targets {
		targets[i] = i
	}
	edgeFeat := make(map[[2]int][]float64)
	for _, e := range g.Edges {
		edgeFeat[[2]int{g.MustIndex(e.Dst), g.MustIndex(e.Src)}] = e.Feat
	}
	bg := &gnn.BatchGraph{Adj: adj, X: tensor.FromRows(x), Targets: targets,
		Dist: gnn.ComputeDistances(adj, targets), EdgeFeat: edgeFeat}
	opt := gnn.RunOptions{}
	return model.Forward(bg, model.Prepare(bg, opt), opt)
}

// checkMatchesDirect holds GraphInfer's output to a whole-graph forward pass,
// every embedding and every score bit for bit. Both run the one
// Layer.Forward with each row's in-edges in ascending node id, and the
// prediction round's ApplyDense adds the bias last, as nn.Dense does; the
// graphs here have integer weights, so GCN's degrees come out exact whether
// the degree job or the batch normalization sums them.
func checkMatchesDirect(t *testing.T, name string, g *graph.Graph, direct *gnn.ForwardState, res *InferResult) {
	t.Helper()
	if len(res.Scores) != g.NumNodes() || len(res.Embeddings) != g.NumNodes() {
		t.Fatalf("%s: scored %d nodes, %d embeddings, want %d", name, len(res.Scores), len(res.Embeddings), g.NumNodes())
	}
	for i, n := range g.Nodes {
		if got, want := res.Embeddings[n.ID], direct.H.Row(i); !slices.Equal(got, want) {
			t.Fatalf("%s node %d: GraphInfer embedding %v, direct %v", name, n.ID, got, want)
		}
		want := nn.Sigmoid(direct.Logits.At(i, 0))
		if got := res.Scores[n.ID][0]; got != want {
			t.Fatalf("%s node %d: GraphInfer %v direct %v", name, n.ID, got, want)
		}
	}
}

// TestGraphInferMatchesDirectInference: for every layer kind, one to three
// layers deep, and GAT with two heads, GraphInfer's rounds compute what a
// whole-graph forward pass computes.
func TestGraphInferMatchesDirectInference(t *testing.T) {
	g := buildInferGraph(t)
	tables := mapreduce.MemInput(TableRecords(g))
	for _, kind := range []string{gnn.KindGCN, gnn.KindSAGE, gnn.KindGAT, gnn.KindGIN} {
		heads := []int{1}
		if kind == gnn.KindGAT {
			heads = []int{1, 2}
		}
		for _, h := range heads {
			for _, layers := range []int{1, 2, 3} {
				name := fmt.Sprintf("%s heads %d layers %d", kind, h, layers)
				model, err := gnn.NewModel(gnn.Config{
					Kind: kind, InDim: 6, Hidden: 8, Classes: 1, Layers: layers, Heads: h,
					Act: nn.ActTanh, Seed: 21,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Infer(InferConfig{Seed: 4, KeepEmbeddings: true, TempDir: t.TempDir()}, model, tables)
				if err != nil {
					t.Fatal(err)
				}
				checkMatchesDirect(t, name, g, directForward(g, model), res)
			}
		}
	}
}

// TestGraphInferBlocksAreExact: on a graph large enough that every reduce
// task merges several blocks, GraphInfer's scores and embeddings are the
// same bits at any reducer count, and when the first attempt of every
// reduce task fails.
func TestGraphInferBlocksAreExact(t *testing.T) {
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 10000, AttachEdges: 10, FeatDim: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.KindGAT, InDim: 6, Hidden: 8, Classes: 1, Heads: 2, Act: nn.ActTanh, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tables := mapreduce.MemInput(TableRecords(ds.G))
	infer := func(reducers int, faults mapreduce.FaultInjector) *InferResult {
		t.Helper()
		res, err := Infer(InferConfig{Seed: 3, KeepEmbeddings: true, NumReducers: reducers,
			Faults: faults, TempDir: t.TempDir()}, model, tables)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Unsampled, every in-edge is kept: a task of the 8-reducer run holds
	// about 1,250 nodes and their in-edges, over two and a half blocks.
	if per := (ds.G.NumNodes() + ds.G.NumEdges()) / 8; per < 5*inferBlock/2 {
		t.Fatalf("%d nodes and in-edges per task fill fewer than two and a half blocks", per)
	}
	want := infer(1, nil)
	failFirst := func(kind string, _, attempt int) error {
		if kind == "reduce" && attempt == 0 {
			return errors.New("injected reduce failure")
		}
		return nil
	}
	faulty := infer(3, failFirst)
	for _, run := range []struct {
		name string
		res  *InferResult
	}{
		{"3 reducers", infer(3, nil)},
		{"8 reducers", infer(8, nil)},
		{"3 reducers, first attempts failed", faulty},
	} {
		if len(run.res.Scores) != len(want.Scores) || len(run.res.Embeddings) != len(want.Embeddings) {
			t.Fatalf("%s: %d scores, %d embeddings; one reducer gave %d, %d", run.name,
				len(run.res.Scores), len(run.res.Embeddings), len(want.Scores), len(want.Embeddings))
		}
		for id, w := range want.Scores {
			if got := run.res.Scores[id]; !slices.Equal(got, w) {
				t.Fatalf("%s node %d: score %v, %v with one reducer", run.name, id, got, w)
			}
			if got := run.res.Embeddings[id]; !slices.Equal(got, want.Embeddings[id]) {
				t.Fatalf("%s node %d: embedding %v, %v with one reducer", run.name, id, got, want.Embeddings[id])
			}
		}
	}
	var tasks, retries int64
	for _, s := range faulty.RoundStats {
		tasks += int64(s.ReduceTasks)
		retries += s.Retries
	}
	if retries != tasks {
		t.Fatalf("%d retries over %d reduce tasks", retries, tasks)
	}
}

// TestOriginalInferMatchesGraphInfer: a forward pass over each node's own
// GraphFeature and GraphInfer's message passing score every node the same,
// unsampled and — because both keep one sampled in-edge set per node — under
// every strategy, with and without hub re-indexing. Re-indexing only lays
// out the shuffle: GraphInfer's scores are bit-identical with it and
// without it.
func TestOriginalInferMatchesGraphInfer(t *testing.T) {
	edgeDS, err := datagen.UUG(datagen.UUGConfig{Nodes: 70, FeatDim: 6, EdgeFeatDim: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		g   *graph.Graph
		cfg gnn.Config
	}{
		{buildInferGraph(t), gnn.Config{Kind: gnn.KindGCN, InDim: 6, Hidden: 8, Classes: 1, Layers: 2, Act: nn.ActTanh, Seed: 22}},
		{edgeDS.G, gnn.Config{Kind: gnn.KindGAT, InDim: 6, Hidden: 8, Classes: 1, Layers: 2, Heads: 2, EdgeDim: 4, Act: nn.ActTanh, Seed: 32}},
	}
	type sample struct {
		maxNeighbors int
		strategy     sampling.Strategy
		hubThreshold int
	}
	samples := []sample{{0, nil, 0}}
	for _, s := range []sampling.Strategy{sampling.Uniform{}, sampling.Weighted{}, sampling.TopK{}} {
		samples = append(samples, sample{3, s, 0}, sample{3, s, 6})
	}
	for _, m := range models {
		model, err := gnn.NewModel(m.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tables := mapreduce.MemInput(TableRecords(m.g))
		unsharded := map[sampling.Strategy]*InferResult{}
		for _, sm := range samples {
			name := fmt.Sprintf("%s cap %d hub %d", m.cfg.Kind, sm.maxNeighbors, sm.hubThreshold)
			if sm.strategy != nil {
				name += " " + sm.strategy.Name()
			}
			fast, err := Infer(InferConfig{Seed: 4, MaxNeighbors: sm.maxNeighbors, Strategy: sm.strategy,
				HubThreshold: sm.hubThreshold, TempDir: t.TempDir()}, model, tables)
			if err != nil {
				t.Fatal(err)
			}
			if sm.hubThreshold == 0 {
				unsharded[sm.strategy] = fast
			} else {
				if len(fast.RoundStats) == len(unsharded[sm.strategy].RoundStats) {
					t.Fatalf("%s: no re-index round ran", name)
				}
				for id, want := range unsharded[sm.strategy].Scores {
					if got := fast.Scores[id]; !slices.Equal(got, want) {
						t.Fatalf("%s node %d: %v re-indexed, %v with hub 0", name, id, got, want)
					}
				}
			}
			slow, err := OriginalInfer(FlatConfig{Hops: 2, Seed: 4, MaxNeighbors: sm.maxNeighbors, Strategy: sm.strategy,
				HubThreshold: sm.hubThreshold, TempDir: t.TempDir()}, model, tables, m.g.IDs())
			if err != nil {
				t.Fatal(err)
			}
			if len(slow.Scores) != len(fast.Scores) || len(fast.Scores) != m.g.NumNodes() {
				t.Fatalf("%s: score counts differ: %d vs %d", name, len(slow.Scores), len(fast.Scores))
			}
			for id, want := range fast.Scores {
				got := slow.Scores[id]
				if got[0] != want[0] {
					t.Fatalf("%s node %d: original %v graphinfer %v", name, id, got[0], want[0])
				}
			}
			// GraphInfer must shuffle less than the original's GraphFlat phase on
			// overlapping neighborhoods.
			var flatBytes int64
			for _, s := range slow.FlatStats {
				flatBytes += s.BytesShuffled
			}
			if fast.TotalShuffledBytes() >= flatBytes {
				t.Fatalf("%s: GraphInfer shuffled more than baseline: %d vs %d",
					name, fast.TotalShuffledBytes(), flatBytes)
			}
		}
	}
}

func TestInferWithSamplingIsDeterministic(t *testing.T) {
	g := buildInferGraph(t)
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindSAGE, InDim: 6, Hidden: 8, Classes: 1, Layers: 2,
		Act: nn.ActTanh, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	tables := mapreduce.MemInput(TableRecords(g))
	cfg := InferConfig{Seed: 9, MaxNeighbors: 3, TempDir: t.TempDir()}
	a, err := Infer(cfg, model, tables)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(cfg, model, tables)
	if err != nil {
		t.Fatal(err)
	}
	for id, sa := range a.Scores {
		if math.Abs(sa[0]-b.Scores[id][0]) > 0 {
			t.Fatalf("node %d: sampling nondeterministic", id)
		}
	}
}

// TestFlattenSpillRoundsMatchesMemory: disk-spooled rounds give the
// in-memory records byte for byte, and Flatten removes every round dataset
// it spilled under TempDir — after a run that succeeds, and after a run
// that fails in any one of its task attempts (re-index jobs included).
func TestFlattenSpillRoundsMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		cfg     FlatConfig
		targets map[int64]Target
	}{
		{"chain", chainGraph(t, 8), FlatConfig{Hops: 2, Seed: 3}, map[int64]Target{6: {Label: 1}, 7: {Label: 0}}},
		{"hubs", randomDigraph(rng, 20, 0.3), FlatConfig{Hops: 2, Seed: 3, MaxNeighbors: 2, HubThreshold: 2},
			map[int64]Target{1: {Label: 1}, 4: {Label: 0}, 9: {Label: 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tables := mapreduce.MemInput(TableRecords(c.g))
			spilled := func(dir string) []string {
				left, err := filepath.Glob(filepath.Join(dir, "agl-*"))
				if err != nil {
					t.Fatal(err)
				}
				return left
			}
			mem := flatten(t, c.g, c.cfg, c.targets)
			var attempts atomic.Int32
			cfg := c.cfg
			cfg.SpillRounds, cfg.MaxAttempts, cfg.TempDir = true, 1, t.TempDir()
			cfg.Faults = func(string, int, int) error { attempts.Add(1); return nil }
			disk, err := Flatten(cfg, tables, c.targets)
			if err != nil {
				t.Fatal(err)
			}
			if len(mem.Records) != len(c.targets) || !slices.EqualFunc(mem.Records, disk.Records, bytes.Equal) {
				t.Fatalf("disk-spooled rounds changed the records: %d in memory, %d spilled", len(mem.Records), len(disk.Records))
			}
			if c.cfg.HubThreshold > 0 && disk.HubCount == 0 {
				t.Fatal("no hub re-indexed: the re-index jobs went untested")
			}
			if left := spilled(cfg.TempDir); len(left) > 0 {
				t.Fatalf("a successful run left its round datasets: %v", left)
			}
			for fail := int32(1); fail <= attempts.Load(); fail++ {
				var n atomic.Int32
				cfg.TempDir = t.TempDir()
				cfg.Faults = func(string, int, int) error {
					if n.Add(1) == fail {
						return errors.New("injected")
					}
					return nil
				}
				if _, err := Flatten(cfg, tables, c.targets); err == nil {
					t.Fatalf("attempt %d failed, Flatten did not", fail)
				}
				if left := spilled(cfg.TempDir); len(left) > 0 {
					t.Fatalf("a run failing at attempt %d left %v", fail, left)
				}
			}
		})
	}
}

func TestTrainEarlyStopping(t *testing.T) {
	train, test, _ := miniCora(t, 1)
	res, err := Train(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: 16, Epochs: 40, LR: 0.05,
		Eval: test, EvalMetric: MetricAccuracy, EvalEvery: 1, Patience: 3, Seed: 9,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Skip("model kept improving for all 40 epochs; patience untested on this seed")
	}
	if len(res.History) >= 40 {
		t.Fatal("early stopping did not shorten training")
	}
	if res.BestEpoch == 0 || res.BestMetric <= 0 {
		t.Fatalf("best snapshot not tracked: epoch=%d metric=%v", res.BestEpoch, res.BestMetric)
	}
	// The returned model must be the best snapshot, not the last one.
	acc, err := Evaluate(res.Model, test, EvalConfig{Metric: MetricAccuracy})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-res.BestMetric) > 1e-9 {
		t.Fatalf("returned model scores %v, best was %v", acc, res.BestMetric)
	}
}

func TestFlattenCarriesEdgeFeatures(t *testing.T) {
	nodes := []graph.Node{
		{ID: 0, Feat: []float64{0}}, {ID: 1, Feat: []float64{1}}, {ID: 2, Feat: []float64{2}},
	}
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2, Feat: []float64{0.5, -1}},
		{Src: 1, Dst: 2, Weight: 3, Feat: []float64{7, 8}},
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := flatten(t, g, FlatConfig{Hops: 2}, map[int64]Target{2: {}})
	rec := recordByID(t, res, 2)
	if len(rec.SG.Edges) != 2 {
		t.Fatalf("edges=%d", len(rec.SG.Edges))
	}
	for _, e := range rec.SG.Edges {
		switch {
		case e.Src == 0 && e.Dst == 1:
			if len(e.Feat) != 2 || e.Feat[1] != -1 {
				t.Fatalf("edge (0,1) features lost: %v", e.Feat)
			}
		case e.Src == 1 && e.Dst == 2:
			if len(e.Feat) != 2 || e.Feat[0] != 7 {
				t.Fatalf("edge (1,2) features lost: %v", e.Feat)
			}
		default:
			t.Fatalf("unexpected edge (%d,%d)", e.Src, e.Dst)
		}
	}
	// And they survive batch vectorization into E_B.
	b, err := AssembleBatch([]*wire.TrainRecord{rec}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph.EdgeFeat == nil {
		t.Fatal("EdgeFeat not vectorized")
	}
	di, si := -1, -1
	for i, id := range b.NodeIDs {
		if id == 2 {
			di = i
		}
		if id == 1 {
			si = i
		}
	}
	ef := b.Graph.EdgeFeat[[2]int{di, si}]
	if len(ef) != 2 || ef[0] != 7 {
		t.Fatalf("E_B entry wrong: %v", ef)
	}
}

func TestEdgeGATGraphInferMatchesDirect(t *testing.T) {
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 70, FeatDim: 6, EdgeFeatDim: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.G
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGAT, InDim: 6, Hidden: 8, Classes: 1, Layers: 2,
		Heads: 2, EdgeDim: 4, Act: nn.ActTanh, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(InferConfig{Seed: 4, KeepEmbeddings: true, TempDir: t.TempDir()},
		model, mapreduce.MemInput(TableRecords(g)))
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesDirect(t, "edge GAT", g, directForward(g, model), res)
}

func TestPredictReturnsAlignedOutputs(t *testing.T) {
	train, _, _ := miniCora(t, 1)
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1,
		Act: nn.ActReLU, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, logits, labels, _, err := Predict(model, train, 16, gnn.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(train) || logits.Rows != len(train) || len(labels) != len(train) {
		t.Fatalf("misaligned outputs: %d %d %d vs %d", len(ids), logits.Rows, len(labels), len(train))
	}
}
