package core

import (
	"sort"
	"testing"

	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/sampling"
	"agl/internal/wire"
)

// subgraphSets canonicalizes a subgraph into sorted node-id and edge-key
// lists for set comparison.
func subgraphSets(sg *wire.Subgraph) ([]int64, [][2]int64) {
	nodes := make([]int64, 0, len(sg.Nodes))
	for _, n := range sg.Nodes {
		nodes = append(nodes, n.ID)
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	edges := make([][2]int64, 0, len(sg.Edges))
	for _, e := range sg.Edges {
		edges = append(edges, [2]int64{e.Src, e.Dst})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	return nodes, edges
}

// TestLocalFlattenerMatchesFlatten: the request-time BFS extraction must
// produce exactly the GraphFeature the batch pipeline materializes — same
// node set, edge set and degrees — unsampled over 10 targets, and sampled
// (one kept in-edge set per node, shared by both) over every node, with and
// without the batch pipeline re-indexing hubs.
func TestLocalFlattenerMatchesFlatten(t *testing.T) {
	g := buildInferGraph(t)
	testLocalMatchesFlatten(t, g, FlatConfig{Hops: 2, Seed: 4}, g.IDs()[:10])
	for _, s := range []sampling.Strategy{sampling.Uniform{}, sampling.Weighted{}, sampling.TopK{}} {
		testLocalMatchesFlatten(t, g, FlatConfig{Hops: 2, MaxNeighbors: 3, Strategy: s, Seed: 4}, g.IDs())
		testLocalMatchesFlatten(t, g, FlatConfig{Hops: 3, MaxNeighbors: 3, Strategy: s, Seed: 4}, g.IDs())
		testLocalMatchesFlatten(t, g, FlatConfig{Hops: 2, MaxNeighbors: 3, Strategy: s, Seed: 4, HubThreshold: 4}, g.IDs())
	}
}

func testLocalMatchesFlatten(t *testing.T, g *graph.Graph, cfg FlatConfig, ids []int64) {
	t.Helper()
	targets := map[int64]Target{}
	for _, id := range ids {
		targets[id] = Target{Label: -1}
	}
	batch := cfg
	batch.TempDir = t.TempDir()
	flat, err := Flatten(batch, mapreduce.MemInput(TableRecords(g)), targets)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HubThreshold > 0 && flat.HubCount == 0 {
		t.Fatalf("%+v: no hub was re-indexed", cfg)
	}
	offline := map[int64]*wire.Subgraph{}
	for _, rec := range flat.Records {
		tr, err := wire.DecodeTrainRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		offline[tr.TargetID] = tr.SG
	}

	lf := NewLocalFlattener(cfg, g)
	for _, id := range ids {
		rec, err := lf.GraphFeature(id)
		if err != nil {
			t.Fatal(err)
		}
		wantN, wantE := subgraphSets(offline[id])
		gotN, gotE := subgraphSets(rec.SG)
		if len(gotN) != len(wantN) {
			t.Fatalf("target %d: %d nodes, batch pipeline has %d", id, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("target %d: node sets diverge at %d: %d vs %d", id, i, gotN[i], wantN[i])
			}
		}
		if len(gotE) != len(wantE) {
			t.Fatalf("target %d: %d edges, batch pipeline has %d", id, len(gotE), len(wantE))
		}
		for i := range wantE {
			if gotE[i] != wantE[i] {
				t.Fatalf("target %d: edge sets diverge at %d: %v vs %v", id, i, gotE[i], wantE[i])
			}
		}
		// Degrees must carry the same normalization the offline join
		// computed (weighted in-degree + 1).
		wantDeg := map[int64]float64{}
		for _, n := range offline[id].Nodes {
			wantDeg[n.ID] = n.Deg
		}
		for _, n := range rec.SG.Nodes {
			if wantDeg[n.ID] != n.Deg {
				t.Fatalf("target %d node %d: deg %v, batch pipeline %v", id, n.ID, n.Deg, wantDeg[n.ID])
			}
		}
	}
}

// TestLocalFlattenerSamplingCapsAndDeterminism: with MaxNeighbors set,
// every node's in-edges inside the extraction respect the cap, and two
// extractions of the same target are identical.
func TestLocalFlattenerSamplingCapsAndDeterminism(t *testing.T) {
	g := buildInferGraph(t)
	lf := NewLocalFlattener(FlatConfig{Hops: 2, MaxNeighbors: 3, Seed: 9}, g)
	id := g.IDs()[0]
	a, err := lf.GraphFeature(id)
	if err != nil {
		t.Fatal(err)
	}
	inCount := map[int64]int{}
	for _, e := range a.SG.Edges {
		inCount[e.Dst]++
	}
	for n, c := range inCount {
		if c > 3 {
			t.Fatalf("node %d kept %d in-edges, cap is 3", n, c)
		}
	}
	b, err := lf.GraphFeature(id)
	if err != nil {
		t.Fatal(err)
	}
	an, ae := subgraphSets(a.SG)
	bn, be := subgraphSets(b.SG)
	if len(an) != len(bn) || len(ae) != len(be) {
		t.Fatalf("repeat extraction differs: %d/%d nodes, %d/%d edges", len(an), len(bn), len(ae), len(be))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatal("repeat extraction picked different nodes")
		}
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("repeat extraction picked different edges")
		}
	}
}

func TestLocalFlattenerUnknownNode(t *testing.T) {
	g := buildInferGraph(t)
	lf := NewLocalFlattener(FlatConfig{Hops: 2}, g)
	if _, err := lf.GraphFeature(1 << 40); err == nil {
		t.Fatal("unknown node accepted")
	}
}
