package main

import (
	"agl"
)

// sutSeed seeds everything that configures the system under test (model
// initialisation, sampling, training order). The --seed argument reaches
// only the input generators, so two seeds give two datasets and two request
// schedules to the same system.
const sutSeed = 7

// offlineSpec is one GraphFlat -> GraphTrainer -> GraphInfer workload.
type offlineSpec struct {
	uug      agl.UUGConfig
	targets  int // number of labeled nodes flattened; 0 = all of them
	flat     agl.FlatConfig
	model    agl.ModelConfig
	train    agl.TrainConfig
	aucFloor float64
	// dominant is the share of pipeline_s the workload exists to stress, and
	// minShare the floor below which the workload has silently become a
	// different one.
	dominant func(flatS, trainS, inferS float64) float64
	minShare float64
}

// serveSpec is one wire-level workload against real aglserve processes.
type serveSpec struct {
	nodes     int
	cache     int
	replicas  int
	writeFrac float64 // share of schedule positions that are POST /update
	// precondition lists the sizes of the mutation batches sent during
	// warm-up. Invalidated rows are only recomputed when next read, so under
	// sustained writes the dirty share of the store climbs for seconds
	// before it levels off; these batches take it there before anything is
	// timed, instead of letting the median read drift from the warm path to
	// the cold one in mid-measurement.
	precondition []int
	// rates is the frozen five-rung ladder: 40/60/80/100/120% of the knee
	// measured at the seed commit, rounded.
	rates [5]float64
	// reference indexes the rung held longest, off which p50, p99 and
	// cpu_s are read: the 60% rung unless the workload says why not.
	reference int
	// p99LimitMs is the frozen latency limit a rung must meet.
	p99LimitMs float64
}

type workload struct {
	name    string
	why     string
	offline *offlineSpec
	serve   *serveSpec
}

// mutationsPerBatch is the size of every POST /update.
const mutationsPerBatch = 4

var workloads = []workload{
	{
		name: "offline_hub",
		why:  "shuffle-bound pipeline: power-law graph, hub re-indexing, weighted sampling, thin GCN; mapreduce, wire and sampling do the work",
		offline: &offlineSpec{
			uug: agl.UUGConfig{Nodes: 6000, FeatDim: 64},
			flat: agl.FlatConfig{Hops: 2, MaxNeighbors: 10, Strategy: agl.SampleWeighted,
				HubThreshold: 50, Seed: sutSeed},
			model: agl.ModelConfig{Kind: agl.GCN, Hidden: 16, Classes: 1, Layers: 2, Seed: sutSeed},
			train: agl.TrainConfig{Loss: agl.LossBCE, Epochs: 2, Seed: sutSeed},
			// Frozen at the seed commit: AUC over the flattened targets
			// read 0.93-0.95 on seeds 1-12.
			aucFloor: 0.85,
			dominant: func(flatS, _, inferS float64) float64 { return flatS + inferS },
			minShare: 0.8,
		},
	},
	{
		name: "offline_dense",
		why:  "compute-bound pipeline: small graph, 256-dim features, GAT hidden 64, many epochs on 2 workers and 2 PS shards; trainer, tensor, sparse, gnn and ps do the work",
		offline: &offlineSpec{
			uug:     agl.UUGConfig{Nodes: 800, FeatDim: 256},
			targets: 160,
			flat:    agl.FlatConfig{Hops: 2, MaxNeighbors: 25, Seed: sutSeed},
			model:   agl.ModelConfig{Kind: agl.GAT, Hidden: 64, Classes: 1, Layers: 2, Heads: 1, Seed: sutSeed},
			// Sync mode with the parallelism settings of
			// TestTrainBitIdenticalAcrossParallelism, so the loss repeats.
			train: agl.TrainConfig{Loss: agl.LossBCE, Epochs: 24, BatchSize: 32, Workers: 2, PSShards: 2,
				Mode: agl.Sync, Pipeline: true, Pruning: true, AggThreads: 2, Seed: sutSeed},
			aucFloor: 0.85,
			dominant: func(_, trainS, _ float64) float64 { return trainS },
			minShare: 0.6,
		},
	},
	{
		name: "serve_warm",
		why:  "read-only traffic on one aglserve, working set 5x the cache: HTTP/JSON edge, cache and store do the work, the forward pass never runs",
		serve: &serveSpec{nodes: 20000, cache: 4096, replicas: 1,
			rates: [5]float64{7000, 10000, 13500, 17000, 20500}, reference: 1, p99LimitMs: 10},
	},
	{
		name: "serve_mixed",
		why:  "the same server with 5% POST /update batches: reads land on invalidated rows, so graph.Apply, k-hop invalidation, the batcher and the forward pass do the work",
		serve: &serveSpec{nodes: 20000, cache: 4096, replicas: 1, writeFrac: 0.03, precondition: []int{256, 256, 256, 256},
			// The knee of this workload is set by Server.Apply, which is
			// serialized: at 60% of the knee it is busy 45% of the time, and
			// a read that overlaps an Apply is about a millisecond slower. The
			// median read then sits on the edge between the two modes and
			// measures how often reads meet a write, spreading 17% from run
			// to run. At the 40% rung under a third of the reads overlap, so
			// the median is a read's own latency and repeats.
			rates: [5]float64{650, 950, 1300, 1600, 1900}, reference: 0, p99LimitMs: 30},
	},
	{
		name: "serve_routed",
		why:  "two replicas, every request sent to the one that does not own its ids: each /score pays one rpcx hop and each /link scatter-gathers",
		serve: &serveSpec{nodes: 20000, cache: 4096, replicas: 2,
			rates: [5]float64{800, 1200, 1600, 2000, 2400}, reference: 1, p99LimitMs: 25},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The serving model every serve workload boots: flattened, trained and
// handed to aglserve as files during set-up.
var (
	// serveFeatDim keeps the node table, and with it set-up, small: set-up
	// shuffles every node's features through GraphFlat whatever the number
	// of training targets.
	serveFeatDim = 32
	serveFlat    = agl.FlatConfig{Hops: 2, MaxNeighbors: 10, Strategy: agl.SampleWeighted, Seed: sutSeed}
	// serveTrainTargets bounds the training set: the serving model needs
	// trained weights, not a long set-up.
	serveTrainTargets = 512
	serveModel        = agl.ModelConfig{Kind: agl.GCN, Hidden: 16, Classes: 1, Layers: 2, Seed: sutSeed}
	serveTrain        = agl.TrainConfig{Loss: agl.LossBCE, Epochs: 2, Seed: sutSeed}
)
