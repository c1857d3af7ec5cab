package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
)

func benchServer(b *testing.B, withStore bool, cacheSize int) (*Server, *graph.Graph) {
	b.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 2000, FeatDim: 16, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 16, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	var store *RowStore
	if withStore {
		res, err := core.Infer(core.InferConfig{Seed: 4, TempDir: b.TempDir(), KeepEmbeddings: true},
			model, mapreduce.MemInput(core.TableRecords(ds.G)))
		if err != nil {
			b.Fatal(err)
		}
		store, err = NewStore(16, res.Embeddings)
		if err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{Seed: 4, CacheSize: cacheSize}, model, ds.G, store)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, ds.G
}

// BenchmarkScoreCacheHit measures the fully cached fast path.
func BenchmarkScoreCacheHit(b *testing.B) {
	srv, g := benchServer(b, true, 4096)
	id := g.Nodes[0].ID
	if _, err := srv.Score(context.Background(), id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Score(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreWarmStore measures the store-lookup + prediction-slice
// path; a 1-entry cache keeps every request a cache miss.
func BenchmarkScoreWarmStore(b *testing.B) {
	srv, g := benchServer(b, true, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := g.Nodes[i%len(g.Nodes)].ID
		if _, err := srv.Score(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreColdForward measures the request-time k-hop extraction +
// forward-pass path (no store, 1-entry cache).
func BenchmarkScoreColdForward(b *testing.B) {
	srv, g := benchServer(b, false, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := g.Nodes[i%len(g.Nodes)].ID
		if _, err := srv.Score(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// linkBenchServer builds a dot-head link server over the requested store
// backend ("mem" or "quant") for the warm pair-scoring benchmarks.
func linkBenchServer(b *testing.B, backend string) (*Server, *graph.Graph) {
	b.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 2000, FeatDim: 16, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 16, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 5, EdgeHead: gnn.EdgeHeadDot,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Infer(core.InferConfig{Seed: 4, TempDir: b.TempDir(), KeepEmbeddings: true},
		model, mapreduce.MemInput(core.TableRecords(ds.G)))
	if err != nil {
		b.Fatal(err)
	}
	mem, err := NewStore(16, res.Embeddings)
	if err != nil {
		b.Fatal(err)
	}
	var store Store = mem
	if backend == "quant" {
		store, err = Quantize(mem)
		if err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{Seed: 4}, model, ds.G, store)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, ds.G
}

// BenchmarkScoreLinkWarmMem measures the warm pair path over the float64
// store: two lookups + float dot.
func BenchmarkScoreLinkWarmMem(b *testing.B) {
	srv, g := linkBenchServer(b, "mem")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := g.Nodes[i%len(g.Nodes)].ID
		dst := g.Nodes[(i*7+1)%len(g.Nodes)].ID
		if _, err := srv.ScoreLink(ctx, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreLinkWarmQuant measures the same workload over the int8
// store: two lookups + quantDot, no dequantization.
func BenchmarkScoreLinkWarmQuant(b *testing.B) {
	srv, g := linkBenchServer(b, "quant")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := g.Nodes[i%len(g.Nodes)].ID
		dst := g.Nodes[(i*7+1)%len(g.Nodes)].ID
		if _, err := srv.ScoreLink(ctx, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreParallelHot measures contended throughput on a small hot
// working set — the hub-traffic shape single-flight and the LRU exist for.
func BenchmarkScoreParallelHot(b *testing.B) {
	srv, g := benchServer(b, true, 4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := g.Nodes[i%64].ID
			if _, err := srv.Score(context.Background(), id); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServerScoreManyWarm measures a bulk of 32 cached ids: the part
// of POST /scores behind the HTTP edge when nothing is cold.
func BenchmarkServerScoreManyWarm(b *testing.B) {
	srv, g := benchServer(b, true, 4096)
	ctx := context.Background()
	ids := make([]int64, 32)
	for i := range ids {
		ids[i] = g.Nodes[i].ID
	}
	if _, errs := srv.ScoreMany(ctx, ids); errors.Join(errs...) != nil {
		b.Fatal(errors.Join(errs...))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := srv.ScoreMany(ctx, ids); errs[31] != nil {
			b.Fatal(errs[31])
		}
	}
}

// BenchmarkReplicaScoreManyRouted measures a bulk of 32 ids that the
// entry replica's peer owns, two in-process replicas over loopback: one
// rpcx round trip carrying the whole group.
func BenchmarkReplicaScoreManyRouted(b *testing.B) {
	cl := buildCluster(b, 2)
	ctx := context.Background()
	entry := cl.reps[0]
	ids := idsOwnedBy(cl, entry.Table(), 1, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := entry.ScoreMany(ctx, ids); errs[31] != nil {
			b.Fatal(errs[31])
		}
	}
}

// BenchmarkServerApply is the write path end to end inside the process: one
// 4-mutation batch through Graph.Apply, the flattener's Rebind, the k-hop
// walk and the eviction of what it reached, on a store-backed server whose
// graph has mean in-degree 5. The stream is applied round and round, so
// after the first pass the removals fail; the three other mutations of a
// batch still apply.
func BenchmarkServerApply(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			g, stream := writeFixture(b, n, 32, 5, 512)
			model, err := gnn.NewModel(gnn.Config{
				Kind: gnn.KindGCN, InDim: 32, Hidden: 16, Classes: 1,
				Layers: 2, Act: nn.ActTanh, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			embs := make(map[int64][]float64, n)
			for _, nd := range g.Nodes {
				embs[nd.ID] = make([]float64, 16)
			}
			store, err := NewStore(16, embs)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Seed: 4, MaxNeighbors: 10}, model, g, store)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := srv.Apply(context.Background(), stream[i%len(stream)]); err != nil || res.Applied < 3 {
					b.Fatalf("apply: %+v %v", res, err)
				}
			}
		})
	}
}
