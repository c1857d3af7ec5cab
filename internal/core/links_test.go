package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/ps"
	"agl/internal/wire"
)

// randomDigraph builds a random n-node digraph with unit-feature nodes.
func randomDigraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	var nodes []graph.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: []float64{float64(i)}})
	}
	var edges []graph.Edge
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && rng.Float64() < density {
				edges = append(edges, graph.Edge{Src: int64(a), Dst: int64(b), Weight: 1})
			}
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestFlattenEdgesIsUnionOfEndpointFlattensProperty checks the edge-target
// mode's defining property on random digraphs: the merged pair subgraph is
// exactly the union (by node id and (src,dst) edge) of the two endpoints'
// single-node flattens.
func TestFlattenEdgesIsUnionOfEndpointFlattensProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := randomDigraph(rng, n, 0.15)
		src := int64(rng.Intn(n))
		dst := int64((int(src) + 1 + rng.Intn(n-1)) % n)
		k := 1 + rng.Intn(3)

		cfg := FlatConfig{Hops: k, TempDir: t.TempDir()}
		cfg.EdgeTargets = []EdgeTarget{{Src: src, Dst: dst, Label: 1}}
		linkRes, err := Flatten(cfg, mapreduce.MemInput(TableRecords(g)), nil)
		if err != nil {
			t.Logf("edge flatten: %v", err)
			return false
		}
		if len(linkRes.Records) != 1 {
			t.Logf("want 1 link record, got %d", len(linkRes.Records))
			return false
		}
		lr, err := wire.DecodeLinkRecord(linkRes.Records[0])
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if lr.Src != src || lr.Dst != dst || lr.Label != 1 {
			t.Logf("pair mismatch: %+v", lr)
			return false
		}

		nodeRes, err := Flatten(FlatConfig{Hops: k, TempDir: t.TempDir()},
			mapreduce.MemInput(TableRecords(g)),
			map[int64]Target{src: {Label: -1}, dst: {Label: -1}})
		if err != nil {
			t.Logf("node flatten: %v", err)
			return false
		}
		wantNodes := map[int64]bool{}
		wantEdges := map[[2]int64]bool{}
		for _, enc := range nodeRes.Records {
			tr, err := wire.DecodeTrainRecord(enc)
			if err != nil {
				t.Logf("decode node record: %v", err)
				return false
			}
			for _, nd := range tr.SG.Nodes {
				wantNodes[nd.ID] = true
			}
			for _, e := range tr.SG.Edges {
				wantEdges[[2]int64{e.Src, e.Dst}] = true
			}
		}
		gotNodes := map[int64]bool{}
		for _, nd := range lr.SG.Nodes {
			gotNodes[nd.ID] = true
		}
		gotEdges := map[[2]int64]bool{}
		for _, e := range lr.SG.Edges {
			gotEdges[[2]int64{e.Src, e.Dst}] = true
		}
		if len(gotNodes) != len(wantNodes) || len(gotEdges) != len(wantEdges) {
			t.Logf("seed=%d k=%d pair=(%d,%d): nodes %d/%d edges %d/%d",
				seed, k, src, dst, len(gotNodes), len(wantNodes), len(gotEdges), len(wantEdges))
			return false
		}
		for u := range wantNodes {
			if !gotNodes[u] {
				return false
			}
		}
		for e := range wantEdges {
			if !gotEdges[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFlattenEdgesMultiplePairsAndSpill covers shared endpoints across
// pairs, negative-label pairs, the SpillRounds path, and dropped pairs
// whose endpoint is absent from the node table.
func TestFlattenEdgesMultiplePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomDigraph(rng, 12, 0.2)
	pairs := []EdgeTarget{
		{Src: 0, Dst: 1, Label: 1},
		{Src: 0, Dst: 2, Label: 0}, // shares endpoint 0
		{Src: 3, Dst: 4, Label: 1},
		{Src: 5, Dst: 999, Label: 1}, // endpoint not in graph: dropped
	}
	for _, spill := range []bool{false, true} {
		cfg := FlatConfig{Hops: 2, TempDir: t.TempDir(), SpillRounds: spill, EdgeTargets: pairs}
		res, err := Flatten(cfg, mapreduce.MemInput(TableRecords(g)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 3 {
			t.Fatalf("spill=%v: want 3 link records (unknown endpoint dropped), got %d", spill, len(res.Records))
		}
		seen := map[[2]int64]int64{}
		for _, enc := range res.Records {
			lr, err := wire.DecodeLinkRecord(enc)
			if err != nil {
				t.Fatal(err)
			}
			seen[[2]int64{lr.Src, lr.Dst}] = lr.Label
			// Both endpoints must be nodes of the merged subgraph.
			found := 0
			for _, nd := range lr.SG.Nodes {
				if nd.ID == lr.Src || nd.ID == lr.Dst {
					found++
				}
			}
			if found != 2 {
				t.Fatalf("pair (%d,%d): endpoints missing from merged subgraph", lr.Src, lr.Dst)
			}
		}
		if seen[[2]int64{0, 2}] != 0 || seen[[2]int64{0, 1}] != 1 {
			t.Fatalf("labels lost: %v", seen)
		}
	}
}

func TestFlattenRejectsMixedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomDigraph(rng, 6, 0.3)
	cfg := FlatConfig{Hops: 1, EdgeTargets: []EdgeTarget{{Src: 0, Dst: 1, Label: 1}}}
	_, err := Flatten(cfg, mapreduce.MemInput(TableRecords(g)), map[int64]Target{2: {}})
	if err == nil {
		t.Fatal("expected mutual-exclusion error for edge + node targets")
	}
}

func TestLinkValidation(t *testing.T) {
	bad := []FlatConfig{
		{EdgeTargets: []EdgeTarget{{Src: 1, Dst: 2, Label: 7}}},
		{EdgeTargets: []EdgeTarget{{Src: 3, Dst: 3, Label: 1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("FlatConfig %d: expected validation error", i)
		}
	}
	if err := (TrainConfig{NegativeRatio: -1, Model: gnn.Config{EdgeHead: gnn.EdgeHeadDot}}).Validate(); err == nil {
		t.Fatal("expected NegativeRatio error")
	}
	if err := (TrainConfig{NegativeRatio: 2}).Validate(); err == nil {
		t.Fatal("expected NegativeRatio-without-EdgeHead error")
	}
	if err := (TrainConfig{Model: gnn.Config{EdgeHead: "cosine"}}).Validate(); err == nil {
		t.Fatal("expected EdgeHead enum error")
	}
	if err := (InferConfig{EdgeTargets: []EdgeTarget{{Src: 1, Dst: 2}}}).Validate(); err == nil {
		t.Fatal("expected EdgeTargets-without-KeepEmbeddings error")
	}
	if err := (InferConfig{KeepEmbeddings: true, EdgeTargets: []EdgeTarget{{Src: 2, Dst: 2}}}).Validate(); err == nil {
		t.Fatal("expected self-pair error")
	}
}

// linkFixtureGraph builds a two-community graph where intra-community links
// are dense — learnable link structure — and splits its edges into train
// pairs and eval pairs (the latter padded with sampled negatives).
func linkFixtureGraph(t *testing.T, seed int64) (g *graph.Graph, trainPairs, evalPairs []EdgeTarget) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 60
	var nodes []graph.Node
	for i := 0; i < n; i++ {
		f := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
		f[i%2] += 1.5 // community feature signal
		nodes = append(nodes, graph.Node{ID: int64(i), Feat: f})
	}
	var edges []graph.Edge
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			p := 0.02
			if a%2 == b%2 {
				p = 0.18 // homophilous links
			}
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{Src: int64(a), Dst: int64(b), Weight: 1})
			}
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	exists := map[[2]int64]bool{}
	for _, e := range g.Edges {
		exists[[2]int64{e.Src, e.Dst}] = true
	}
	for i, e := range g.Edges {
		if i%5 == 0 && len(evalPairs) < 30 {
			evalPairs = append(evalPairs, EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
		} else {
			trainPairs = append(trainPairs, EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
		}
	}
	for len(evalPairs) < 60 {
		s, d := int64(rng.Intn(n)), int64(rng.Intn(n))
		if s == d || exists[[2]int64{s, d}] {
			continue
		}
		evalPairs = append(evalPairs, EdgeTarget{Src: s, Dst: d, Label: 0})
	}
	return g, trainPairs, evalPairs
}

// linkTrainingFixture flattens linkFixtureGraph's train and eval pairs.
func linkTrainingFixture(t *testing.T, seed int64) (train, eval [][]byte, inDim int) {
	t.Helper()
	g, trainPairs, evalPairs := linkFixtureGraph(t, seed)
	tables := mapreduce.MemInput(TableRecords(g))
	trRes, err := Flatten(FlatConfig{Hops: 2, TempDir: t.TempDir(), EdgeTargets: trainPairs}, tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	evRes, err := Flatten(FlatConfig{Hops: 2, TempDir: t.TempDir(), EdgeTargets: evalPairs}, tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trRes.Records, evRes.Records, 2
}

// TestLinkTrainingLearns trains a pairwise model end to end through the
// dispatching Train and checks the held-out AUC clearly beats chance. The
// two workers train in Sync mode, so the run — and its AUC — repeats.
func TestLinkTrainingLearns(t *testing.T) {
	train, eval, inDim := linkTrainingFixture(t, 7)
	res, err := Train(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: inDim, Hidden: 8, Classes: 1,
			Layers: 2, Act: nn.ActTanh, Seed: 5, EdgeHead: gnn.EdgeHeadBilinear,
		},
		Loss: LossBCE, Epochs: 20, BatchSize: 32, LR: 0.05,
		Workers: 2, Mode: ps.Sync, NegativeRatio: 2, Seed: 5,
		Eval: eval, EvalMetric: MetricAUC,
		Pipeline: true, Pruning: true,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if !last.HasMetric {
		t.Fatal("final epoch has no metric")
	}
	if last.Metric < 0.7 {
		t.Fatalf("link AUC %.3f, want > 0.7", last.Metric)
	}
	// Training must have reached a lower loss than it started with. The
	// comparison is against the best epoch, not the last: per-epoch loss
	// is noisy with freshly resampled negatives.
	best := res.History[0].Loss
	for _, st := range res.History[1:] {
		if st.Loss < best {
			best = st.Loss
		}
	}
	if best >= res.History[0].Loss {
		t.Fatalf("loss never decreased below the first epoch's %.4f", res.History[0].Loss)
	}
}

func TestAssembleLinkBatchNegativeSampling(t *testing.T) {
	train, _, _ := linkTrainingFixture(t, 13)
	recs, err := DecodeLinkRecords(train[:8])
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleLinkBatchWS(nil, recs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Negatives == 0 {
		t.Fatal("no negatives sampled")
	}
	if len(b.SrcRows) != 8+b.Negatives || b.Labels.Rows != len(b.SrcRows) {
		t.Fatalf("pair bookkeeping: %d src rows, %d negatives, %d labels",
			len(b.SrcRows), b.Negatives, b.Labels.Rows)
	}
	// Negatives carry label 0, positives label 1, and negatives never
	// duplicate a batch edge.
	edgeSet := map[[2]int64]bool{}
	for _, rec := range recs {
		for _, e := range rec.SG.Edges {
			edgeSet[[2]int64{e.Src, e.Dst}] = true
		}
	}
	for p := 8; p < len(b.SrcRows); p++ {
		if b.Labels.At(p, 0) != 0 {
			t.Fatalf("negative pair %d has label %v", p, b.Labels.At(p, 0))
		}
		if edgeSet[b.Pairs[p]] {
			t.Fatalf("negative pair %v is a real batch edge", b.Pairs[p])
		}
	}
	// Without a ratio no negatives appear (evaluation mode).
	b2, err := AssembleLinkBatchWS(nil, recs, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Negatives != 0 || len(b2.SrcRows) != 8 {
		t.Fatalf("eval assembly sampled negatives: %+v", b2.Negatives)
	}
	// The negatives are a function of the records and the key.
	again, err := AssembleLinkBatchWS(nil, recs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Pairs, b.Pairs) {
		t.Fatal("same records and key sampled different negatives")
	}
}

// TestInferLinkScores checks offline pair scoring through GraphInfer and
// pins it to the edge head applied to the kept embeddings.
func TestInferLinkScores(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomDigraph(rng, 20, 0.2)
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 1, Hidden: 6, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 2, EdgeHead: gnn.EdgeHeadBilinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []EdgeTarget{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 4, Dst: 888}}
	res, err := Infer(InferConfig{KeepEmbeddings: true, EdgeTargets: pairs},
		model, mapreduce.MemInput(TableRecords(g)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LinkScores) != 2 {
		t.Fatalf("want 2 scored pairs (unknown endpoint dropped), got %d", len(res.LinkScores))
	}
	want := ScoresFromLogits([]float64{model.Edge.ScoreVec(res.Embeddings[0], res.Embeddings[1])})[0]
	got := res.LinkScores[[2]int64{0, 1}]
	if got != want {
		t.Fatalf("pair (0,1) score %v, want %v", got, want)
	}
	// Without an edge head the same request must fail loudly.
	plain, err := gnn.NewModel(gnn.Config{Kind: gnn.KindGCN, InDim: 1, Hidden: 6, Classes: 1, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(InferConfig{KeepEmbeddings: true, EdgeTargets: pairs[:1]},
		plain, mapreduce.MemInput(TableRecords(g))); err == nil {
		t.Fatal("expected error for EdgeTargets without an edge head")
	}
}
