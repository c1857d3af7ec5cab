package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
)

// testLinkGraph mirrors testGraph but builds a link model (edge head).
func testLinkGraph(t *testing.T, kind string) (*graph.Graph, *gnn.Model, *core.InferResult) {
	t.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 250, FeatDim: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 21, EdgeHead: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Infer(core.InferConfig{Seed: 4, TempDir: t.TempDir(), KeepEmbeddings: true},
		model, mapreduce.MemInput(core.TableRecords(ds.G)))
	if err != nil {
		t.Fatal(err)
	}
	return ds.G, model, res
}

// TestScoreLinkWarmMatchesCold pins the warm pair path (two store lookups +
// pairwise head) to the cold path (request-time k-hop extraction) on a
// store-less twin server: both must produce the same logit.
func TestScoreLinkWarmMatchesCold(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadBilinear)
	store, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	warmSrv, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer warmSrv.Close()
	coldModel, err := gnn.UnmarshalModel(mustMarshal(t, model))
	if err != nil {
		t.Fatal(err)
	}
	coldSrv, err := New(Config{Seed: 4}, coldModel, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coldSrv.Close()

	ids := g.IDs()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		src, dst := ids[i], ids[(i*13+7)%len(ids)]
		if src == dst {
			continue
		}
		warm, err := warmSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm-cold) > 1e-9 {
			t.Fatalf("pair (%d,%d): warm %v vs cold %v", src, dst, warm, cold)
		}
	}
	ws, cs := warmSrv.Stats(), coldSrv.Stats()
	if ws.LinkWarm == 0 || ws.LinkCold != 0 {
		t.Fatalf("warm server stats: %+v", ws)
	}
	if cs.LinkCold == 0 || cs.LinkWarm != 0 {
		t.Fatalf("cold server stats: %+v", cs)
	}
}

func mustMarshal(t testing.TB, m *gnn.Model) []byte {
	t.Helper()
	b, err := gnn.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScoreLinkErrors(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadDot)
	store, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	ids := g.IDs()

	// Unknown endpoint: ErrUnknownNode, distinguishable for a 404.
	if _, err := srv.ScoreLink(ctx, 99999999, ids[0]); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown src: got %v", err)
	}
	if _, err := srv.ScoreLink(ctx, ids[0], 99999999); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown dst: got %v", err)
	}

	// A node-task model must reject link requests loudly.
	plainG, plainModel, _ := testGraph(t)
	plainSrv, err := New(Config{Seed: 4}, plainModel, plainG, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plainSrv.Close()
	if _, err := plainSrv.ScoreLink(ctx, ids[0], ids[1]); !errors.Is(err, ErrNoEdgeHead) {
		t.Fatalf("edge-head-less model: got %v", err)
	}
}

// TestScoreLinkMutationConsistency applies a feature mutation to one
// endpoint and checks the next link score is recomputed on the new graph
// (cold), matches a freshly built server, and re-admits the row warm.
func TestScoreLinkMutationConsistency(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadBilinear)
	store, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	ids := g.IDs()
	src, dst := ids[3], ids[11]

	before, err := srv.ScoreLink(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}

	newFeat := make([]float64, g.FeatureDim())
	for i := range newFeat {
		newFeat[i] = 9
	}
	res, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(src, newFeat)})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	after, err := srv.ScoreLink(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-before) < 1e-12 {
		t.Fatal("link score unchanged after endpoint feature mutation (stale embedding?)")
	}
	st := srv.Stats()
	if st.LinkCold == 0 {
		t.Fatalf("mutated endpoint did not take the cold path: %+v", st)
	}
	// The recomputed row was re-admitted: the next request is warm again.
	warmBefore := st.LinkWarm
	again, err := srv.ScoreLink(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if again != after {
		t.Fatalf("readmitted score drifted: %v vs %v", again, after)
	}
	if srv.Stats().LinkWarm != warmBefore+1 {
		t.Fatalf("recomputed row not re-admitted warm: %+v", srv.Stats())
	}

	// Cross-check against a server built fresh on the mutated graph.
	freshModel, err := gnn.UnmarshalModel(mustMarshal(t, model))
	if err != nil {
		t.Fatal(err)
	}
	mutatedG, _ := srv.Graph()
	freshSrv, err := New(Config{Seed: 4}, freshModel, mutatedG, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer freshSrv.Close()
	want, err := freshSrv.ScoreLink(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-want) > 1e-9 {
		t.Fatalf("post-mutation link score %v, fresh server %v", after, want)
	}
}

// TestScoreLinkConcurrent hammers ScoreLink and Score for overlapping nodes
// under the race detector; cold endpoint embeddings must single-flight with
// node scoring.
func TestScoreLinkConcurrent(t *testing.T) {
	g, model, _ := testLinkGraph(t, gnn.EdgeHeadDot)
	srv, err := New(Config{Seed: 4}, model, g, nil) // no store: everything cold
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := g.IDs()
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if _, err := srv.ScoreLink(ctx, ids[i%7], ids[(i+1)%7]); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, err := srv.Score(ctx, ids[i%7]); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := srv.Stats()
	if st.LinkRequests == 0 || st.LinkCold == 0 {
		t.Fatalf("link accounting lost requests: %+v", st)
	}
}
