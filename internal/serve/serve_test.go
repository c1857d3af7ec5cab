package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/sampling"
)

// testGraph builds a small power-law graph plus a trained-shape model and
// its GraphInfer result — the offline artifacts a server is loaded from.
func testGraph(t *testing.T) (*graph.Graph, *gnn.Model, *core.InferResult) {
	t.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 250, FeatDim: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 21,
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

func TestStoreLookupAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	embs := make(map[int64][]float64)
	for i := 0; i < 500; i++ {
		h := make([]float64, 8)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		embs[int64(i*7-100)] = h // mixed negative/positive ids
	}
	store, err := NewStore(5, embs)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(embs) || store.Dim() != 8 {
		t.Fatalf("store len=%d dim=%d, want %d/8", store.Len(), store.Dim(), len(embs))
	}
	if store.RowCodec() != CodecF64 {
		t.Fatalf("NewStore codec = %v, want %v", store.RowCodec(), CodecF64)
	}
	buf64 := make([]float64, store.Dim())
	for id, want := range embs {
		row, ok := store.LookupRow(id)
		if !ok {
			t.Fatalf("node %d missing from store", id)
		}
		got := row.Floats(nil)
		into, ok2 := store.LookupInto(buf64, id)
		if !ok2 {
			t.Fatalf("node %d missing via LookupInto", id)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d dim %d: got %v want %v", id, j, got[j], want[j])
			}
			if into[j] != want[j] {
				t.Fatalf("LookupInto node %d dim %d: got %v want %v", id, j, into[j], want[j])
			}
		}
	}
	if _, ok := store.LookupRow(99999); ok {
		t.Fatal("lookup of absent id succeeded")
	}

	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := parseStore(buf.Bytes(), "store image")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != store.Len() || loaded.Dim() != store.Dim() {
		t.Fatalf("roundtrip len=%d dim=%d, want %d/%d",
			loaded.Len(), loaded.Dim(), store.Len(), store.Dim())
	}
	for id, want := range embs {
		row, ok := loaded.LookupRow(id)
		if !ok {
			t.Fatalf("node %d missing after roundtrip", id)
		}
		got := row.Floats(nil)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("roundtrip node %d dim %d: got %v want %v", id, j, got[j], want[j])
			}
		}
	}
}

// contractKinds are the model kinds the serving contract tests run over.
var contractKinds = []string{gnn.KindGCN, gnn.KindSAGE, gnn.KindGAT, gnn.KindGIN}

// contractModel builds a two-layer model of kind over g with every weight
// and bias set to a random nonzero value, so a bias added in another order
// or a row summed in another order shows in the last bits.
func contractModel(t *testing.T, g *graph.Graph, kind string) *gnn.Model {
	t.Helper()
	model, err := gnn.NewModel(gnn.Config{
		Kind: kind, InDim: g.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Heads: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range model.Params().List() {
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat64()*0.5 + 0.01
		}
	}
	return model
}

// contractInfer runs GraphInfer over g with cfg, keeping the embeddings.
func contractInfer(t *testing.T, g *graph.Graph, model *gnn.Model, cfg core.InferConfig) *core.InferResult {
	t.Helper()
	cfg.TempDir, cfg.KeepEmbeddings = t.TempDir(), true
	res, err := core.Infer(cfg, model, mapreduce.MemInput(core.TableRecords(g)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmPathMatchesGraphInfer: scores served off the embedding store
// equal the offline GraphInfer scores bit for bit — both apply the same
// prediction slice to the same layer-K embedding — and those equal the
// original per-node module's (one GraphFeature, one forward pass each),
// whose prediction layer runs as nn.Dense.Forward.
func TestWarmPathMatchesGraphInfer(t *testing.T) {
	g, _, _ := testGraph(t)
	for _, kind := range contractKinds {
		t.Run(kind, func(t *testing.T) {
			model := contractModel(t, g, kind)
			res := contractInfer(t, g, model, core.InferConfig{Seed: 4})
			orig, err := core.OriginalInfer(core.FlatConfig{Hops: 2, Seed: 4, TempDir: t.TempDir()},
				model, mapreduce.MemInput(core.TableRecords(g)), g.IDs())
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(8, res.Embeddings)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Seed: 4}, model, g, store)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for _, n := range g.Nodes {
				got, err := srv.Score(context.Background(), n.ID)
				if err != nil {
					t.Fatal(err)
				}
				if want := res.Scores[n.ID]; got[0] != want[0] {
					t.Fatalf("node %d: serve %v offline %v", n.ID, got[0], want[0])
				}
				if want := orig.Scores[n.ID]; got[0] != want[0] {
					t.Fatalf("node %d: serve %v original module %v", n.ID, got[0], want[0])
				}
			}
			if st := srv.Stats(); st.Warm == 0 || st.Cold != 0 {
				t.Fatalf("expected all-warm serving, got %+v", st)
			}
		})
	}
}

// TestColdPathMatchesGraphInfer: with no store, the request-time k-hop
// extraction plus one forward pass reproduces the offline scores bit for
// bit (sampling disabled, so the neighborhoods are information-complete):
// both vectorize through the one batch builder, whose rows and in-edges
// ascend by id.
func TestColdPathMatchesGraphInfer(t *testing.T) {
	g, _, _ := testGraph(t)
	for _, kind := range contractKinds {
		t.Run(kind, func(t *testing.T) {
			model := contractModel(t, g, kind)
			res := contractInfer(t, g, model, core.InferConfig{Seed: 4})
			srv, err := New(Config{Seed: 4, MaxBatch: 16}, model, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ids := make([]int64, 0, len(g.Nodes))
			for _, n := range g.Nodes {
				ids = append(ids, n.ID)
			}
			scores, errs := srv.ScoreMany(context.Background(), ids)
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if want := res.Scores[id]; scores[i][0] != want[0] {
					t.Fatalf("node %d: cold serve %v offline %v", id, scores[i][0], want[0])
				}
			}
			if st := srv.Stats(); st.Cold == 0 || st.Warm != 0 {
				t.Fatalf("expected all-cold serving, got %+v", st)
			}
		})
	}
}

// TestWarmAndColdAgreeUnderSampling: GraphInfer and the request-time
// extraction keep the same sampled in-edges for every node (same
// MaxNeighbors, Strategy and Seed), so the score of a node is the same bits
// whether it is served off a store built by Infer — here with every
// sampled node re-indexed as a hub — or computed cold.
func TestWarmAndColdAgreeUnderSampling(t *testing.T) {
	g, _, _ := testGraph(t)
	const seed = 17
	inDeg := map[int64]int{}
	for _, e := range g.Edges {
		inDeg[e.Dst]++
	}
	for _, kind := range contractKinds {
		t.Run(kind, func(t *testing.T) {
			model := contractModel(t, g, kind)
			res := contractInfer(t, g, model, core.InferConfig{MaxNeighbors: 3, Strategy: sampling.Weighted{}, Seed: seed, HubThreshold: 3})
			store, err := NewStore(8, res.Embeddings)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{MaxNeighbors: 3, Strategy: sampling.Weighted{}, Seed: seed}
			warm, err := New(cfg, model, g, store)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			cold, err := New(cfg, model, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			sampled := 0
			for _, n := range g.Nodes {
				if inDeg[n.ID] > 3 {
					sampled++
				}
				w, err := warm.Score(context.Background(), n.ID)
				if err != nil {
					t.Fatal(err)
				}
				c, err := cold.Score(context.Background(), n.ID)
				if err != nil {
					t.Fatal(err)
				}
				if w[0] != c[0] {
					t.Fatalf("node %d (in-degree %d): warm %v cold %v", n.ID, inDeg[n.ID], w[0], c[0])
				}
			}
			if sampled == 0 {
				t.Fatal("no node exceeds MaxNeighbors: the test sampled nothing")
			}
			if ws, cs := warm.Stats(), cold.Stats(); ws.Cold != 0 || cs.Warm != 0 {
				t.Fatalf("expected one all-warm and one all-cold server, got %+v and %+v", ws, cs)
			}
		})
	}
}

func TestCacheHitsSkipRecomputation(t *testing.T) {
	g, model, res := testGraph(t)
	store, err := NewStore(8, res.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	id := g.Nodes[0].ID
	first, err := srv.Score(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := srv.Score(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if again[0] != first[0] {
			t.Fatalf("cached score changed: %v vs %v", again[0], first[0])
		}
	}
	st := srv.Stats()
	if st.CacheHits != 10 || st.Warm != 1 {
		t.Fatalf("expected 10 hits over 1 computation, got %+v", st)
	}
}

func TestLRUCacheEvicts(t *testing.T) {
	l := newLRU(2)
	l.add(1, []float64{1})
	l.add(2, []float64{2})
	if _, ok := l.get(1); !ok { // 1 is now most recent
		t.Fatal("entry 1 missing")
	}
	l.add(3, []float64{3}) // evicts 2
	if _, ok := l.get(2); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := l.get(1); !ok {
		t.Fatal("entry 1 evicted out of LRU order")
	}
	if _, ok := l.get(3); !ok {
		t.Fatal("entry 3 missing")
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	g, model, _ := testGraph(t)
	srv, err := New(Config{Seed: 4}, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Score(context.Background(), 1<<40); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("scoring an unknown node: got %v, want ErrUnknownNode", err)
	}
}

func TestScoreAfterCloseFails(t *testing.T) {
	g, model, _ := testGraph(t)
	srv, err := New(Config{Seed: 4}, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := srv.Score(context.Background(), g.Nodes[0].ID); err == nil {
		t.Fatal("score after close succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	g, model, _ := testGraph(t)
	bad := []Config{
		{Hops: -1},
		{MaxNeighbors: -3},
		{CacheSize: -1},
		{MaxBatch: -2},
		{MaxWait: -1},
		{ShedThreshold: -5},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, model, g, nil); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{}, nil, g, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := New(Config{}, model, nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestStoreDimMismatchRejected(t *testing.T) {
	g, model, _ := testGraph(t)
	store, err := NewStore(2, map[int64][]float64{1: {1, 2, 3}}) // dim 3 != hidden 8
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, model, g, store); err == nil {
		t.Fatal("mismatched store dim accepted")
	}
}
