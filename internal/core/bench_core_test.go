package core

import (
	"fmt"
	"testing"

	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/sampling"
	"agl/internal/wire"
)

// Ablation benchmarks for the design choices in DESIGN.md: sampling,
// re-indexing, the three GraphTrainer optimizations, and the two inference
// pipelines.

func benchGraph(b *testing.B, nodes int) (*datagen.Dataset, mapreduce.MemInput) {
	b.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: nodes, FeatDim: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return ds, mapreduce.MemInput(TableRecords(ds.G))
}

func benchTargets(ds *datagen.Dataset) map[int64]Target {
	targets := make(map[int64]Target, len(ds.Train))
	for _, id := range ds.Train {
		y := ds.LabelOf(id)
		targets[id] = Target{Label: int64(y), LabelVec: []float64{float64(y)}}
	}
	return targets
}

func BenchmarkFlatten2Hop(b *testing.B) {
	ds, tables := benchGraph(b, 2000)
	targets := benchTargets(ds)
	cfg := FlatConfig{Hops: 2, MaxNeighbors: 15, Seed: 2, TempDir: b.TempDir()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Flatten(cfg, tables, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatten2HopNoSampling(b *testing.B) {
	ds, tables := benchGraph(b, 2000)
	targets := benchTargets(ds)
	cfg := FlatConfig{Hops: 2, Seed: 2, TempDir: b.TempDir()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Flatten(cfg, tables, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlattenWithReindexing(b *testing.B) {
	ds, tables := benchGraph(b, 2000)
	targets := benchTargets(ds)
	cfg := FlatConfig{
		Hops: 2, MaxNeighbors: 15, Seed: 2, HubThreshold: 32,
		Strategy: sampling.Weighted{}, TempDir: b.TempDir(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Flatten(cfg, tables, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTrainRecords(b *testing.B) [][]byte {
	b.Helper()
	ds, tables := benchGraph(b, 1500)
	res, err := Flatten(FlatConfig{
		Hops: 2, MaxNeighbors: 15, Seed: 2, TempDir: b.TempDir(),
	}, tables, benchTargets(ds))
	if err != nil {
		b.Fatal(err)
	}
	return res.Records
}

func benchTrainConfig(pruning bool, threads int, pipeline bool) TrainConfig {
	return TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGAT, InDim: 16, Hidden: 8, Classes: 1, Layers: 2,
			Act: nn.ActReLU, Seed: 3,
		},
		Loss: LossBCE, BatchSize: 64, Epochs: 1, LR: 0.01,
		Pipeline: pipeline, Pruning: pruning, AggThreads: threads, Seed: 4,
	}
}

func BenchmarkTrainEpochBase(b *testing.B) {
	recs := benchTrainRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(benchTrainConfig(false, 1, false), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochPruning(b *testing.B) {
	recs := benchTrainRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(benchTrainConfig(true, 1, false), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochPartition(b *testing.B) {
	recs := benchTrainRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(benchTrainConfig(false, 8, false), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochAllOptimizations(b *testing.B) {
	recs := benchTrainRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(benchTrainConfig(true, 8, true), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchAssembly(b *testing.B) {
	encoded := benchTrainRecords(b)
	if len(encoded) > 64 {
		encoded = encoded[:64]
	}
	recs := make([]*wire.TrainRecord, 0, len(encoded))
	for _, e := range encoded {
		r, err := wire.DecodeTrainRecord(e)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleBatch(recs, 1, true); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInferModel(b *testing.B) *gnn.Model {
	b.Helper()
	m, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGAT, InDim: 16, Hidden: 8, Classes: 1, Layers: 2,
		Act: nn.ActTanh, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkGraphInfer runs GraphInfer in the shapes of the two offline
// benchmark workloads: hub is a 6,000-node power-law graph with 64-dim
// features, a GCN of hidden 16, weighted sampling of 10 in-edges and hub
// re-indexing above 50; dense is 800 nodes with 256-dim features, a GAT of
// hidden 64 and 25 in-edges. Both keep the embeddings, as the benchmark
// does.
func BenchmarkGraphInfer(b *testing.B) {
	for _, c := range []struct {
		name  string
		uug   datagen.UUGConfig
		model gnn.Config
		infer InferConfig
	}{
		{"hub", datagen.UUGConfig{Nodes: 6000, FeatDim: 64, Seed: 1},
			gnn.Config{Kind: gnn.KindGCN, InDim: 64, Hidden: 16, Classes: 1, Layers: 2, Seed: 1},
			InferConfig{MaxNeighbors: 10, Strategy: sampling.Weighted{}, HubThreshold: 50, Seed: 1, KeepEmbeddings: true}},
		{"dense", datagen.UUGConfig{Nodes: 800, FeatDim: 256, Seed: 1},
			gnn.Config{Kind: gnn.KindGAT, InDim: 256, Hidden: 64, Classes: 1, Layers: 2, Seed: 1},
			InferConfig{MaxNeighbors: 25, Seed: 1, KeepEmbeddings: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.UUG(c.uug)
			if err != nil {
				b.Fatal(err)
			}
			model, err := gnn.NewModel(c.model)
			if err != nil {
				b.Fatal(err)
			}
			tables := mapreduce.MemInput(TableRecords(ds.G))
			cfg := c.infer
			cfg.TempDir = b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Infer(cfg, model, tables); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Skewed-key shuffle: every record fans into one hub key, the access
// pattern that motivated the streaming reducer contract. The streaming
// variant reduces straight off the k-way merge; the collected variant
// copies the whole group into one slice first, standing in for the old
// [][]byte contract. Compare allocs/op and peak-group-bytes between them.

func skewedShuffleInput(values, size int) mapreduce.MemInput {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	in := make(mapreduce.MemInput, values)
	for i := range in {
		in[i] = payload
	}
	return in
}

func benchSkewedShuffle(b *testing.B, reducer mapreduce.Reducer) {
	in := skewedShuffleInput(50_000, 64)
	mapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		return emit(mapreduce.KeyValue{Key: "hub", Value: rec})
	})
	cfg := mapreduce.Config{Name: "bench-skew", TempDir: b.TempDir(), NumMappers: 4, NumReducers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		stats, err := mapreduce.Run(cfg, mapper, reducer, in, mapreduce.NewMemOutput())
		if err != nil {
			b.Fatal(err)
		}
		peak = stats.PeakGroupBytes
	}
	b.ReportMetric(float64(peak), "peak-group-bytes")
}

func BenchmarkSkewedShuffleStreaming(b *testing.B) {
	benchSkewedShuffle(b, mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		var n, total int64
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			n++
			total += int64(len(v))
		}
		if err := values.Err(); err != nil {
			return err
		}
		return emit(mapreduce.KeyValue{Key: key, Value: []byte(fmt.Sprintf("%d/%d", n, total))})
	}))
}

func BenchmarkSkewedShuffleCollected(b *testing.B) {
	benchSkewedShuffle(b, mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		var vals [][]byte
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			vals = append(vals, append([]byte(nil), v...))
		}
		if err := values.Err(); err != nil {
			return err
		}
		var total int64
		for _, v := range vals {
			total += int64(len(v))
		}
		return emit(mapreduce.KeyValue{Key: key, Value: []byte(fmt.Sprintf("%d/%d", len(vals), total))})
	}))
}

func BenchmarkOriginalInfer(b *testing.B) {
	ds, tables := benchGraph(b, 1500)
	model := benchInferModel(b)
	cfg := FlatConfig{Hops: 2, MaxNeighbors: 15, Seed: 2, TempDir: b.TempDir()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OriginalInfer(cfg, model, tables, ds.G.IDs()); err != nil {
			b.Fatal(err)
		}
	}
}
