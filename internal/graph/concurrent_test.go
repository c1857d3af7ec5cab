package graph_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"agl/internal/core"
	"agl/internal/graph"
	"agl/internal/wire"
)

// hubGraph is n nodes on a ring with chords, node 0 a hub with an in-edge
// from every third node.
func hubGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	nodes := make([]graph.Node, n)
	var edges []graph.Edge
	for i := range nodes {
		nodes[i] = graph.Node{ID: int64(i), Feat: []float64{float64(i), 1}}
		edges = append(edges,
			graph.Edge{Src: int64(i), Dst: int64((i + 1) % n), Weight: 1},
			graph.Edge{Src: int64(i), Dst: int64((i + 7) % n), Weight: 2})
		if i%3 == 1 {
			edges = append(edges, graph.Edge{Src: int64(i), Dst: 0, Weight: 1})
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowsBuildUnderConcurrentFirstUse: the adjacency rows are built on
// first use, and the first users may be concurrent — here eight successors
// of one freshly built parent, which must also be independent of each other.
func TestRowsBuildUnderConcurrentFirstUse(t *testing.T) {
	g := hubGraph(t, 300)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := int64(101 + 3*w) // not yet a source of the hub
			next, errs := g.Apply([]graph.Mutation{graph.AddEdge(src, 0, 1), graph.RemoveEdge(1, 0)})
			if errs[0] != nil || errs[1] != nil {
				t.Errorf("successor %d: %v", w, errs)
				return
			}
			if next.NumEdges() != g.NumEdges() || len(next.InRow(0)) != len(g.InRow(0)) {
				t.Errorf("successor %d: %d edges, hub in-row %d; parent %d and %d",
					w, next.NumEdges(), len(next.InRow(0)), g.NumEdges(), len(g.InRow(0)))
			}
			for _, in := range next.InRow(0) {
				if id := next.Nodes[in.Src].ID; id >= 101 && id <= 122 && id%3 == 2 && id != src {
					t.Errorf("successor %d sees sibling's edge from %d", w, id)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadersExtractFromOldSnapshotsWhileApplyRuns: while one writer keeps
// applying batches and rebinding the flattener, readers extract
// GraphFeatures from every version published so far and must get, bit for
// bit, what that version answered when it was new. Meaningful under -race:
// snapshots share rows, so a write into a shared row is a reported race as
// well as a wrong answer.
func TestReadersExtractFromOldSnapshotsWhileApplyRuns(t *testing.T) {
	type version struct {
		lf    *core.LocalFlattener
		probe []int64
		want  []*wire.TrainRecord
	}
	cfg := core.FlatConfig{Hops: 2, MaxNeighbors: 4, Seed: 3}
	extract := func(lf *core.LocalFlattener, ids []int64) []*wire.TrainRecord {
		recs := make([]*wire.TrainRecord, len(ids))
		for i, id := range ids {
			rec, err := lf.GraphFeature(id)
			if err != nil {
				t.Error(err)
			}
			recs[i] = rec
		}
		return recs
	}

	var mu sync.Mutex
	var versions []version
	publish := func(lf *core.LocalFlattener, probe []int64) {
		v := version{lf: lf, probe: probe, want: extract(lf, probe)}
		mu.Lock()
		versions = append(versions, v)
		mu.Unlock()
	}

	g := hubGraph(t, 120)
	lf := core.NewLocalFlattener(cfg, g)
	publish(lf, []int64{0, 1, 8})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(stop)
		readers.Wait()
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				v := versions[rng.Intn(len(versions))]
				mu.Unlock()
				if got := extract(v.lf, v.probe); !reflect.DeepEqual(got, v.want) {
					t.Error("an old version's extraction changed under later applies")
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(11))
	nextID := int64(1000)
	for batch := 0; batch < 300; batch++ {
		cur := lf.Graph()
		n := cur.NumNodes()
		a, b := cur.Nodes[rng.Intn(n)].ID, cur.Nodes[1+rng.Intn(n-1)].ID
		muts := []graph.Mutation{
			graph.AddEdge(b, 0, 1), // the hub's row: a new edge or a merge
			graph.UpdateNodeFeat(a, []float64{rng.NormFloat64(), 1}),
		}
		if a != b {
			muts = append(muts, graph.AddEdge(a, b, 1+rng.Float64()))
		}
		if row := cur.InRow(0); len(row) > 4 {
			muts = append(muts, graph.RemoveEdge(cur.Nodes[row[rng.Intn(len(row))].Src].ID, 0))
		}
		if batch%10 == 0 {
			muts = append(muts, graph.AddNode(nextID, []float64{0, 1}), graph.AddEdge(nextID, a, 1))
			nextID++
		}
		next, errs := cur.Apply(muts)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("batch %d mutation %d: %v", batch, i, err)
			}
		}
		lf = lf.Rebind(next, muts)
		publish(lf, []int64{0, a, b})
	}
}
