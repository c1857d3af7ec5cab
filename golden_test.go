//go:build amd64 && !amd64.v3

// The golden digests below pin every bit the offline pipeline produces.
// They hold on amd64 below v3 only: from GOAMD64=v3 on, the compiler may
// fuse a multiply and an add into one instruction, which rounds once
// instead of twice. A change that only reorders work (kernels, pruning,
// codecs, sorts) must leave them as they are; a change that means to move
// a number updates them and says why.

package agl_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"agl"
	"agl/internal/gnn"
)

// goldenRun is one offline pipeline configuration and the digests it must
// produce.
type goldenRun struct {
	name    string
	uug     agl.UUGConfig
	targets int // the first n labeled nodes; 0 means all of them
	flat    agl.FlatConfig
	model   agl.ModelConfig
	train   agl.TrainConfig
	infer   bool

	recordsSum, modelSum, scoresSum, embeddingsSum string
}

var goldenRuns = []goldenRun{
	{
		// The shape of bench's offline_dense, at two epochs: 256-dim
		// features, two-layer GAT, Sync training on two workers and two PS
		// shards with pruning.
		name:    "dense",
		uug:     agl.UUGConfig{Nodes: 800, FeatDim: 256, Seed: 1},
		targets: 160,
		flat:    agl.FlatConfig{Hops: 2, MaxNeighbors: 25, Seed: 1},
		model:   agl.ModelConfig{Kind: agl.GAT, Hidden: 64, Classes: 1, Layers: 2, Heads: 1, Seed: 1},
		train: agl.TrainConfig{Loss: agl.LossBCE, Epochs: 2, BatchSize: 32, Workers: 2, PSShards: 2,
			Mode: agl.Sync, Pipeline: true, Pruning: true, AggThreads: 2, Seed: 1},
		recordsSum: "33a65d215a2875eade6918b6793f85fc19846cf4ce47b19cda77ada165a24d86",
		modelSum:   "44f4e5d63c3eb514a3e8ca909c47f77e48cc5eb0fe8249ac0be8591cc958f4b7",
	},
	{
		// The shape of bench's offline_hub: weighted sampling with hub
		// re-indexing, a thin GCN, then GraphInfer with embeddings kept.
		name:  "hub",
		uug:   agl.UUGConfig{Nodes: 6000, FeatDim: 64, Seed: 1},
		flat:  agl.FlatConfig{Hops: 2, MaxNeighbors: 10, Strategy: agl.SampleWeighted, HubThreshold: 50, Seed: 1},
		model: agl.ModelConfig{Kind: agl.GCN, Hidden: 16, Classes: 1, Layers: 2, Seed: 1},
		train: agl.TrainConfig{Loss: agl.LossBCE, Epochs: 2, Seed: 1},
		infer: true,

		recordsSum:    "ecdca0703fb4a7a9c65b0f3b20eea28dfa75b94e9aac304cfa40b0a0406ca6e8",
		modelSum:      "3dfc3c22f9cab24ee621c21f5bc2d13cf3548e880f848593d3172809aa3994d7",
		scoresSum:     "c20e7234d7cd7f1b109e144ce66efbdff7839d6f405007e4a5cc21e92141882a",
		embeddingsSum: "befb9e6c9d37698371f6462c9cd5065364641e37bd9088a8576643955866bd1b",
	},
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// digestRows hashes a node-id-keyed vector map in ascending id order: the
// id, the vector length and every value's bits.
func digestRows(rows map[int64][]float64) string {
	ids := make([]int64, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var buf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rows[id])))
		h.Write(buf[:])
		for _, v := range rows[id] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return digest(h)
}

// TestGoldenNumerics runs each configuration's Flatten, Train and (for the
// hub shape) Infer, and compares the sha256 of the flattened records, the
// marshaled model and GraphInfer's scores and embeddings with the pinned
// values.
func TestGoldenNumerics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			check := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s sha256 = %s want %s", what, got, want)
				}
			}
			ds, err := agl.NewUUG(run.uug)
			if err != nil {
				t.Fatal(err)
			}
			ids := append(append(append([]int64(nil), ds.Train...), ds.Val...), ds.Test...)
			if run.targets > 0 {
				ids = ids[:run.targets]
			}
			flatCfg := run.flat
			flatCfg.TempDir = t.TempDir()
			flat, err := agl.Flatten(flatCfg, ds.G, agl.BinaryTargets(ds, ids))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, rec := range flat.Records {
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], uint64(len(rec)))
				h.Write(n[:])
				h.Write(rec)
			}
			check("records", digest(h), run.recordsSum)

			trainCfg := run.train
			trainCfg.Model = run.model
			trainCfg.Model.InDim = ds.G.FeatureDim()
			tr, err := agl.Train(trainCfg, flat.Records)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gnn.MarshalModel(tr.Model)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			check("model", hex.EncodeToString(sum[:]), run.modelSum)
			if !run.infer {
				return
			}
			inf, err := agl.Infer(agl.InferConfig{MaxNeighbors: run.flat.MaxNeighbors, Strategy: run.flat.Strategy,
				Seed: run.flat.Seed, HubThreshold: run.flat.HubThreshold, KeepEmbeddings: true, TempDir: t.TempDir()},
				tr.Model, ds.G)
			if err != nil {
				t.Fatal(err)
			}
			check("scores", digestRows(inf.Scores), run.scoresSum)
			check("embeddings", digestRows(inf.Embeddings), run.embeddingsSum)
		})
	}
}
