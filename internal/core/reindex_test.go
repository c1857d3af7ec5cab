package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/sampling"
)

// hubTables is the table input of a graph with three hubs, 0, 1 and 2.
// Every other node sends each hub one edge, and its own hub (i mod 3) a
// second, parallel one of the same weight with different edge features —
// rows graph.Build would merge, so they are written out by hand — plus two
// edges into the rest of the graph; the hubs send edges too, so they sit in
// two-hop neighbourhoods. hubIns is the number of edge rows into the hubs.
func hubTables(n int) (tables mapreduce.MemInput, hubIns int) {
	var edges []graph.Edge
	for i := int64(3); i < int64(n); i++ {
		w := float64(1 + i%4)
		for h := int64(0); h < 3; h++ {
			edges = append(edges, graph.Edge{Src: i, Dst: h, Weight: w, Feat: []float64{float64(i), 0}})
			if h == i%3 {
				edges = append(edges, graph.Edge{Src: i, Dst: h, Weight: w, Feat: []float64{float64(i), 1}})
			}
		}
		hubIns += 4
		for _, d := range []int64{3 + (i*7)%int64(n-3), 3 + (i*13+1)%int64(n-3)} {
			if d != i {
				edges = append(edges, graph.Edge{Src: i, Dst: d, Weight: 1, Feat: []float64{-1, -1}})
			}
		}
	}
	for h := int64(0); h < 3; h++ {
		edges = append(edges, graph.Edge{Src: h, Dst: 3 + h, Weight: 2, Feat: []float64{0, 0}},
			graph.Edge{Src: h, Dst: (h + 1) % 3, Weight: 3, Feat: []float64{1, 1}})
	}
	hubIns += 3
	for i := 0; i < n; i++ {
		tables = append(tables, EncodeNodeRow(graph.Node{ID: int64(i), Feat: []float64{float64(i%5) / 4, float64(i%3) - 1}}))
	}
	for _, e := range edges {
		tables = append(tables, EncodeEdgeRow(e))
	}
	return tables, hubIns
}

// reindexFaults fails the first attempt of every task of the re-index jobs
// of one Flatten or Infer run of hops rounds. Jobs run one after another,
// each map phase before its reduce phase, so a map task after a reduce task
// starts the next job: degrees, join, then a re-index and a merge job per
// round.
func reindexFaults(hops int) mapreduce.FaultInjector {
	var mu sync.Mutex
	job, last := 0, ""
	return func(kind string, _, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if kind == "map" && last != "map" {
			job++
		}
		last = kind
		if attempt == 0 && job >= 3 && job < 3+2*hops && job%2 == 1 {
			return errors.New("injected re-index failure")
		}
		return nil
	}
}

// checkReindexRounds holds the re-index rounds of stats (every other one
// after the join) to reading only the hub in-edges, and to the retries of
// faulted, when set.
func checkReindexRounds(t *testing.T, name string, stats []*mapreduce.Stats, hops, hubIns int, faulted bool) {
	t.Helper()
	if len(stats) < 1+2*hops {
		t.Fatalf("%s: %d rounds, want join plus %d re-index and merge rounds", name, len(stats), hops)
	}
	for i, s := range stats {
		retries := int64(0)
		if reindex := i%2 == 1 && i < 1+2*hops; reindex {
			if s.MapRecordsIn != int64(hubIns) {
				t.Fatalf("%s: re-index round %d read %d messages, want the %d hub in-edges", name, i, s.MapRecordsIn, hubIns)
			}
			if faulted {
				retries = int64(s.MapTasks + s.ReduceTasks)
			}
		}
		if s.Retries != retries {
			t.Fatalf("%s: round %d retried %d tasks, want %d", name, i, s.Retries, retries)
		}
	}
}

// TestReindexRoundsAreByteIdentical: re-index rounds read only hub
// in-edges and rounds hand their pairs straight on, and GraphFlat's records
// stay the same bytes — in the same order between in-memory and spilled
// rounds at one reducer count, as the same set across reducer counts, with
// re-indexing off, and when every re-index task's first attempt fails. The
// hubs' parallel edges tie on (src, weight), so which edge features survive
// sampling depends on every hub in-edge reaching the merge in input order.
func TestReindexRoundsAreByteIdentical(t *testing.T) {
	const hops = 2
	tables, hubIns := hubTables(40)
	targets := map[int64]Target{}
	for id := int64(0); id < 40; id += 3 {
		targets[id] = Target{Label: id % 2}
	}
	base := FlatConfig{Hops: hops, MaxNeighbors: 5, HubThreshold: 8, Strategy: sampling.Weighted{}, Seed: 9}
	run := func(name string, cfg FlatConfig, faulted bool) [][]byte {
		t.Helper()
		cfg.TempDir = t.TempDir()
		if faulted {
			cfg.Faults = reindexFaults(hops)
		}
		res, err := Flatten(cfg, tables, targets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Records) != len(targets) {
			t.Fatalf("%s: %d records for %d targets", name, len(res.Records), len(targets))
		}
		if cfg.HubThreshold > 0 {
			if res.HubCount != 3 {
				t.Fatalf("%s: %d hubs re-indexed, want 3", name, res.HubCount)
			}
			checkReindexRounds(t, name, res.RoundStats, hops, hubIns, faulted)
		}
		return res.Records
	}
	sorted := func(recs [][]byte) [][]byte {
		return slices.SortedFunc(slices.Values(recs), bytes.Compare)
	}
	plain := base
	plain.HubThreshold, plain.NumReducers = 0, 1
	want := run("1 reducer without re-indexing", plain, false)
	for _, reducers := range []int{1, 3, 8} {
		cfg := base
		cfg.NumReducers = reducers
		mem := run(fmt.Sprintf("%d reducers", reducers), cfg, false)
		same := [][][]byte{run(fmt.Sprintf("%d reducers, re-index faults", reducers), cfg, true)}
		if reducers == 3 { // spilled rounds fsync every part file: one reducer count will do
			cfg.SpillRounds = true
			same = append(same, run("3 reducers, spilled", cfg, false), run("3 reducers, spilled, re-index faults", cfg, true))
		}
		for _, got := range same {
			if !slices.EqualFunc(got, mem, bytes.Equal) {
				t.Fatalf("%d reducers: records differ from the in-memory run's", reducers)
			}
		}
		if !slices.EqualFunc(sorted(mem), sorted(want), bytes.Equal) {
			t.Fatalf("%d reducers: records differ from one reducer's without re-indexing", reducers)
		}
	}
}

// TestReindexInferIsExact: GraphInfer's scores and embeddings over the same
// hubs are the same bits at any reducer count, without re-indexing, and
// when every re-index task's first attempt fails.
func TestReindexInferIsExact(t *testing.T) {
	const hops = 2
	tables, hubIns := hubTables(40)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.KindGCN, InDim: 2, Hidden: 6, Classes: 1, Layers: hops, Act: nn.ActTanh, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := InferConfig{MaxNeighbors: 5, HubThreshold: 8, Strategy: sampling.Weighted{}, Seed: 9, KeepEmbeddings: true}
	run := func(name string, cfg InferConfig, faulted bool) *InferResult {
		t.Helper()
		cfg.TempDir = t.TempDir()
		if faulted {
			cfg.Faults = reindexFaults(hops)
		}
		res, err := Infer(cfg, model, tables)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.HubThreshold > 0 {
			checkReindexRounds(t, name, res.RoundStats, hops, hubIns, faulted)
		}
		return res
	}
	plain := base
	plain.HubThreshold, plain.NumReducers = 0, 1
	want := run("1 reducer without re-indexing", plain, false)
	if len(want.Scores) != 40 {
		t.Fatalf("scored %d nodes, want 40", len(want.Scores))
	}
	for _, reducers := range []int{1, 3, 8} {
		for _, faulted := range []bool{false, true} {
			name := fmt.Sprintf("%d reducers, re-index faults %v", reducers, faulted)
			cfg := base
			cfg.NumReducers = reducers
			got := run(name, cfg, faulted)
			for id, w := range want.Scores {
				if !slices.Equal(got.Scores[id], w) || !slices.Equal(got.Embeddings[id], want.Embeddings[id]) {
					t.Fatalf("%s node %d: score %v embedding %v, want %v %v", name, id,
						got.Scores[id], got.Embeddings[id], w, want.Embeddings[id])
				}
			}
		}
	}
}
