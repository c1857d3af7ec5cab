// Package agl is a Go implementation of AGL ("AGL: A Scalable System for
// Industrial-purpose Graph Machine Learning", Zhang et al., VLDB 2020) —
// an integrated training and inference system for graph neural networks
// built entirely on classic infrastructure: MapReduce and parameter
// servers.
//
// The system has three modules, mirrored by this package's API:
//
//   - Flatten (GraphFlat): a MapReduce pipeline that materializes, for
//     every target node, an information-complete k-hop neighborhood
//     ("GraphFeature"), with hub re-indexing and neighbor sampling.
//   - Train (GraphTrainer): parameter-server training over the
//     self-contained GraphFeatures, with the paper's three optimizations —
//     training pipeline, graph pruning, and edge partitioning.
//   - Infer (GraphInfer): hierarchical model segmentation plus a K+1
//     round MapReduce pipeline that computes every node embedding exactly
//     once.
//
// Flatten and Infer are one message-passing engine with two payloads, and
// the serving tier's cold path walks the same graph: for equal
// MaxNeighbors, Strategy and Seed every node has
// one sampled in-edge set, so a model is trained on, batch-scored on and
// served from the same neighborhoods.
//
// A minimal end-to-end run:
//
//	ds, _ := agl.NewUUG(agl.UUGConfig{Nodes: 5000})
//	targets := agl.BinaryTargets(ds, ds.Train)
//	flat, _ := agl.Flatten(agl.FlatConfig{Hops: 2, MaxNeighbors: 20}, ds.G, targets)
//	res, _ := agl.Train(agl.TrainConfig{
//		Model: agl.ModelConfig{Kind: agl.GAT, InDim: ds.G.FeatureDim(),
//			Hidden: 8, Classes: 1, Layers: 2},
//		Loss: agl.LossBCE, Epochs: 7,
//	}, flat.Records)
//	scores, _ := agl.Infer(agl.InferConfig{MaxNeighbors: 20}, res.Model, ds.G)
package agl

import (
	"io"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/ps"
	"agl/internal/sampling"
	"agl/internal/serve"
)

// Graph-substrate types.
type (
	// Graph is a directed attributed graph (node table + edge table).
	Graph = graph.Graph
	// Node is one node-table row.
	Node = graph.Node
	// Edge is one edge-table row.
	Edge = graph.Edge
)

// NewGraph builds a Graph from node and edge rows; self loops are dropped
// and duplicate edges merged.
func NewGraph(nodes []Node, edges []Edge) (*Graph, error) {
	return graph.Build(nodes, edges)
}

// Mutation is one streamed graph change; Server.Apply commits batches of
// them onto copy-on-write graph versions and incrementally invalidates
// the serving tier's caches (see ApplyResult).
type Mutation = graph.Mutation

// LogEntry is one committed mutation batch in a Server's bounded catch-up
// log (see Server.MutationsSince): the applied mutations plus the graph
// version they produced.
type LogEntry = graph.LogEntry

// Mutation constructors.
var (
	// AddNode inserts a new isolated node.
	AddNode = graph.AddNode
	// AddEdge inserts a directed edge (an existing (src, dst) pair merges
	// weights, the same contract as NewGraph).
	AddEdge = graph.AddEdge
	// RemoveEdge deletes the directed edge (src, dst).
	RemoveEdge = graph.RemoveEdge
	// UpdateNodeFeat replaces a node's feature vector.
	UpdateNodeFeat = graph.UpdateNodeFeat
)

// Dataset types and generators (synthetic stand-ins for the paper's
// evaluation data; see DESIGN.md).
type (
	// Dataset bundles a graph with labels and splits.
	Dataset = datagen.Dataset
	// CoraConfig parameterizes the citation-network generator.
	CoraConfig = datagen.CoraConfig
	// PPIConfig parameterizes the protein-interaction generator.
	PPIConfig = datagen.PPIConfig
	// UUGConfig parameterizes the social-graph generator.
	UUGConfig = datagen.UUGConfig
)

// Link-prediction types: the edge-level workload (fraud-pair scoring,
// recommendation) through the same three modules — GraphFlat's edge-target
// mode materializes merged endpoint neighborhoods, GraphTrainer's pairwise
// head trains on them, and the serving tier scores pairs warm off the
// embedding store.
type (
	// EdgeTarget marks a (src, dst) pair to flatten, with its link label
	// (1 positive, 0 negative).
	EdgeTarget = core.EdgeTarget
	// LinkConfig parameterizes held-out-edge link splits.
	LinkConfig = datagen.LinkConfig
	// LinkDataset is a held-out-edge split: training graph, positive train
	// pairs, and test positives plus sampled negatives.
	LinkDataset = datagen.LinkDataset
)

// Edge-head kinds for ModelConfig.EdgeHead.
const (
	EdgeHeadDot      = gnn.EdgeHeadDot
	EdgeHeadBilinear = gnn.EdgeHeadBilinear
	EdgeHeadMLP      = gnn.EdgeHeadMLP
)

// NewLinks builds a held-out-edge link-prediction split from a dataset:
// the training graph drops the held-out edges (both directions), and the
// test set pairs them with uniformly sampled non-edge negatives.
func NewLinks(ds *Dataset, cfg LinkConfig) (*LinkDataset, error) { return datagen.Links(ds, cfg) }

// LinkTargets builds positive (label 1) edge targets from graph edges —
// the training input of FlatConfig.EdgeTargets.
func LinkTargets(edges []Edge) []EdgeTarget {
	out := make([]EdgeTarget, 0, len(edges))
	for _, e := range edges {
		out = append(out, EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
	}
	return out
}

// EvaluateLinks scores a link model over LinkRecords (Flatten output with
// FlatConfig.EdgeTargets) with ROC-AUC.
func EvaluateLinks(m *Model, records [][]byte, cfg EvalConfig) (float64, error) {
	return core.EvaluateLinks(m, records, cfg)
}

// NewCora generates a Cora-like citation dataset.
func NewCora(cfg CoraConfig) (*Dataset, error) { return datagen.Cora(cfg) }

// NewPPI generates a PPI-like multi-label dataset.
func NewPPI(cfg PPIConfig) (*Dataset, error) { return datagen.PPI(cfg) }

// NewUUG generates a UUG-like power-law social dataset.
func NewUUG(cfg UUGConfig) (*Dataset, error) { return datagen.UUG(cfg) }

// Model types.
type (
	// Model is a K-layer GNN with a dense prediction head.
	Model = gnn.Model
	// ModelConfig configures a model.
	ModelConfig = gnn.Config
)

// Model kinds.
const (
	GCN  = gnn.KindGCN
	SAGE = gnn.KindSAGE
	GAT  = gnn.KindGAT
	GIN  = gnn.KindGIN
)

// Activations re-exported for ModelConfig.Act.
const (
	ActReLU      = nn.ActReLU
	ActLeakyReLU = nn.ActLeakyReLU
	ActTanh      = nn.ActTanh
	ActSigmoid   = nn.ActSigmoid
	ActELU       = nn.ActELU
)

// NewModel constructs a model with Glorot-initialized parameters.
func NewModel(cfg ModelConfig) (*Model, error) { return gnn.NewModel(cfg) }

// SaveModel serializes a model (config + weights) to w.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return gnn.Load(r) }

// GraphFlat types.
type (
	// FlatConfig parameterizes GraphFlat.
	FlatConfig = core.FlatConfig
	// FlatResult is GraphFlat's output (GraphFeature records + stats).
	FlatResult = core.FlatResult
	// Target marks a node to flatten, with its supervision.
	Target = core.Target
)

// Sampling strategies for FlatConfig.Strategy / InferConfig.Strategy.
var (
	// SampleUniform picks neighbors uniformly at random.
	SampleUniform sampling.Strategy = sampling.Uniform{}
	// SampleWeighted picks neighbors proportionally to edge weight.
	SampleWeighted sampling.Strategy = sampling.Weighted{}
	// SampleTopK deterministically keeps the heaviest edges.
	SampleTopK sampling.Strategy = sampling.TopK{}
)

// Flatten runs the GraphFlat pipeline over g for the given targets.
func Flatten(cfg FlatConfig, g *Graph, targets map[int64]Target) (*FlatResult, error) {
	return core.Flatten(cfg, mapreduce.MemInput(core.TableRecords(g)), targets)
}

// ClassTargets builds single-label targets for the given node IDs.
func ClassTargets(ds *Dataset, ids []int64) map[int64]Target {
	out := make(map[int64]Target, len(ids))
	for _, id := range ids {
		out[id] = Target{Label: int64(ds.LabelOf(id))}
	}
	return out
}

// BinaryTargets builds binary BCE targets (label vector [y]) for node IDs.
func BinaryTargets(ds *Dataset, ids []int64) map[int64]Target {
	out := make(map[int64]Target, len(ids))
	for _, id := range ids {
		y := ds.LabelOf(id)
		out[id] = Target{Label: int64(y), LabelVec: []float64{float64(y)}}
	}
	return out
}

// MultiLabelTargets builds multi-label BCE targets for node IDs.
func MultiLabelTargets(ds *Dataset, ids []int64) map[int64]Target {
	out := make(map[int64]Target, len(ids))
	for _, id := range ids {
		out[id] = Target{Label: -1, LabelVec: append([]float64(nil), ds.LabelVecOf(id)...)}
	}
	return out
}

// GraphTrainer types.
type (
	// TrainConfig parameterizes GraphTrainer.
	TrainConfig = core.TrainConfig
	// TrainResult is GraphTrainer's output.
	TrainResult = core.TrainResult
	// EvalConfig parameterizes Evaluate.
	EvalConfig = core.EvalConfig
)

// Losses.
const (
	LossCE  = core.LossCE
	LossBCE = core.LossBCE
)

// Metrics.
const (
	MetricAccuracy = core.MetricAccuracy
	MetricMicroF1  = core.MetricMicroF1
	MetricAUC      = core.MetricAUC
)

// Parameter-server consistency modes.
const (
	Async = ps.Async
	Sync  = ps.Sync
)

// Train runs distributed parameter-server training over GraphFeature
// records produced by Flatten, scoring cfg.Eval every cfg.EvalEvery epochs
// (0: on the final model only) and stopping early under cfg.Patience.
// With one worker the result is a function of cfg and the records alone,
// byte for byte; see core.Train for the guarantee and its limit.
func Train(cfg TrainConfig, records [][]byte) (*TrainResult, error) {
	return core.Train(cfg, records)
}

// Evaluate scores a model over GraphFeature records.
func Evaluate(m *Model, records [][]byte, cfg EvalConfig) (float64, error) {
	return core.Evaluate(m, records, cfg)
}

// GraphInfer types.
type (
	// InferConfig parameterizes GraphInfer.
	InferConfig = core.InferConfig
	// InferResult holds per-node predicted scores plus cost accounting.
	InferResult = core.InferResult
)

// Infer runs the GraphInfer pipeline over the whole graph and returns
// predicted scores for every node (plus final-layer embeddings when
// cfg.KeepEmbeddings is set). With the sampling fields of the Flatten run,
// the scores equal a forward pass over each node's GraphFeature (==).
func Infer(cfg InferConfig, m *Model, g *Graph) (*InferResult, error) {
	return core.Infer(cfg, m, mapreduce.MemInput(core.TableRecords(g)))
}

// Online serving types. The serving tier answers per-node score requests
// at request latency on top of the offline pipeline's artifacts: an
// embedding store loaded from GraphInfer output serves "warm" nodes
// through the model's prediction slice alone, unknown nodes fall back to
// a micro-batched request-time forward pass, and a bounded LRU cache with
// single-flight deduplication absorbs hub traffic.
type (
	// ServeConfig parameterizes an online inference Server.
	ServeConfig = serve.Config
	// Server is the online inference service.
	Server = serve.Server
	// ServeStats snapshots a Server's request and mutation accounting.
	ServeStats = serve.Stats
	// EmbeddingStore is the read interface of a final-layer node-embedding
	// store, organized around a row codec: LookupRow returns a node's row
	// in the store's native encoding (an EmbeddingRow), LookupInto decodes
	// into a caller-owned float64 buffer. RowStore implements it; the
	// interface exists so callers can wrap one. LookupRow results may alias
	// store memory — Clone before retaining (see serve.Store for the full
	// contract).
	EmbeddingStore = serve.Store
	// EmbeddingRow is one store row in its native codec: full-precision
	// float64s (CodecF64) or affine-quantized int8s with a per-row scale
	// and zero-point (CodecQ8). Floats decodes either form; two CodecQ8
	// rows under a dot-product edge head score without decoding at all.
	EmbeddingRow = serve.Row
	// RowCodec names an EmbeddingRow's encoding.
	RowCodec = serve.Codec
	// RowStore is the embedding store, one type over one checksummed file
	// format. Its rows are float64 (NewEmbeddingStore) or int8-quantized,
	// ~7-8x smaller (QuantizeStore); its bytes live on the heap or, opened
	// with OpenEmbeddingStore(path, true), in a read-only mmap of the file
	// with O(1) open and resident memory bounded by what the page cache
	// keeps warm. Save persists it, Verify checksums it, Close releases it.
	RowStore = serve.RowStore
	// StoreSpec is the declarative store-backend selection (mem, mmap, or
	// quant; open-from-file or build-from-embeddings; verify and save)
	// shared by cmd/aglserve's flag surface and embedding API users.
	StoreSpec = serve.StoreSpec
	// ApplyResult summarizes one mutation batch committed with
	// Server.Apply: the new graph version, which mutations applied
	// (positional errors, partial-failure semantics), and how many cache
	// entries and store rows were invalidated.
	ApplyResult = serve.ApplyResult
	// ShedError reports a cold-path request rejected by admission control
	// (the server is saturated); it carries a RetryAfter hint and unwraps
	// to ErrOverloaded. aglserve maps it to HTTP 429 + Retry-After.
	ShedError = serve.ShedError
	// FlightSample is one interval of the Server's always-on metrics
	// flight recorder (queue depth, batch occupancy, shed/expired counts,
	// warm/cold latency percentiles). Read a recorder file with
	// ReadFlightFile or cmd/aglmetrics.
	FlightSample = serve.FlightSample
)

// ValidationError reports one rejected configuration field from any
// Validate() (FlatConfig, InferConfig, TrainConfig, ServeConfig). Field is
// the qualified name ("FlatConfig.Hops"); branch on it with errors.As.
type ValidationError = core.ValidationError

// Serving-tier error sentinels, usable with errors.Is on Score/ScoreLink/
// Apply failures.
var (
	// ErrServerClosed marks a request against a shut-down Server.
	ErrServerClosed = serve.ErrClosed
	// ErrUnknownNode marks a request for a node absent from both the
	// store and the graph.
	ErrUnknownNode = serve.ErrUnknownNode
	// ErrOverloaded is the sentinel every ShedError unwraps to.
	ErrOverloaded = serve.ErrOverloaded
	// ErrExpired marks a request dropped from a micro-batch because its
	// ctx deadline could not be met; it unwraps to
	// context.DeadlineExceeded.
	ErrExpired = serve.ErrExpired
)

// ReadFlightFile decodes a Server flight-recorder file (ServeConfig.
// FlightPath) into oldest-first samples.
func ReadFlightFile(path string) ([]FlightSample, error) {
	return serve.ReadFlightFile(path)
}

// NewEmbeddingStore builds a heap-resident float64 embedding store,
// typically from InferResult.Embeddings (run Infer with KeepEmbeddings
// set).
func NewEmbeddingStore(embeddings map[int64][]float64) (*RowStore, error) {
	return serve.NewStore(0, embeddings)
}

// QuantizeStore quantizes src's rows to int8 (per-row affine scale +
// zero-point) into a heap-resident store. Rows with non-finite values are
// rejected. Under a dot-product edge head, link scores compute directly on
// the quantized rows.
func QuantizeStore(src EmbeddingStore) (*RowStore, error) {
	return serve.Quantize(src)
}

// OpenEmbeddingStore opens a store file written by RowStore.Save. With
// mapped unset the file is read onto the heap and fully verified; with
// mapped set it is mmap'd in O(1) time and memory (only the header is
// checked eagerly; rows fault in on demand, Verify checksums the full file,
// Close unmaps it).
func OpenEmbeddingStore(path string, mapped bool) (*RowStore, error) {
	return serve.OpenStore(path, mapped)
}

// Cluster serving types. A fleet of replicas partitions the warm embedding
// tier by node-id hash slot under an epoch-versioned placement table:
// requests for non-owned nodes proxy to the owner, link scores
// scatter-gather the two endpoint embeddings, mutations route to the
// owning replica and fan out invalidations cluster-wide, and slots migrate
// live between replicas with bit-correct results throughout (writes pause
// briefly; reads never do). See cmd/aglserve's -peers/-replica-id/-slots
// flags and README's "Running a cluster".
type (
	// PlacementTable is the epoch-versioned slot->replica ownership map.
	// Build one with EvenPlacement, evolve it with WithOwner (epoch+1),
	// persist it with WriteFile/ReadPlacementFile.
	PlacementTable = placement.Table
	// Replica wraps a Server into a cluster member: it owns the slots the
	// placement table assigns it and routes everything else.
	Replica = serve.Replica
	// ClusterStats snapshots a Replica's routing and fan-out counters.
	ClusterStats = serve.ClusterStats
	// MigrateResult summarizes one live slot migration.
	MigrateResult = serve.MigrateResult
	// EpochError reports a request fenced for carrying a stale placement
	// epoch; it unwraps to ErrStaleEpoch and is retryable after refetching
	// the table. aglserve maps it to HTTP 409 "stale_epoch".
	EpochError = placement.EpochError
)

// ErrStaleEpoch is the sentinel every EpochError unwraps to.
var ErrStaleEpoch = placement.ErrStaleEpoch

// PlacementSlots is the default hash-slot count for cluster placement.
const PlacementSlots = placement.DefaultSlots

// SlotOf maps a node id to its hash slot.
func SlotOf(id int64, slots int) int { return placement.SlotOf(id, slots) }

// EvenPlacement builds an epoch-1 table spreading slots round-robin over
// the replica addresses.
func EvenPlacement(replicas []string, slots int) (*PlacementTable, error) {
	return placement.Even(replicas, slots)
}

// ReadPlacementFile loads a placement table written with
// PlacementTable.WriteFile.
func ReadPlacementFile(path string) (*PlacementTable, error) {
	return placement.ReadFile(path)
}

// NewReplica wraps srv into a cluster replica listening on listen for
// peer RPCs. Call Join with the cluster's placement table to go live, and
// Close on shutdown.
func NewReplica(id int, srv *Server, listen string) (*Replica, error) {
	return serve.NewReplica(id, srv, listen)
}

// Serve starts an online inference server for m over g. store may be nil,
// in which case every request takes the cold forward-pass path. Close the
// returned Server when done.
//
// The serving API is context-first: srv.Score(ctx, id), srv.ScoreLink(ctx,
// src, dst) and srv.Apply(ctx, muts) all honor ctx deadlines end to end —
// a cold request whose deadline cannot be met is dropped from its
// micro-batch before the forward pass runs (ErrExpired), and under
// saturation cold requests are shed fast with a *ShedError instead of
// queueing (errors.Is ErrOverloaded; warm and cached requests are never
// shed).
//
// The served graph is dynamic: srv.Apply commits mutation batches (built
// with AddNode/AddEdge/RemoveEdge/UpdateNodeFeat) and invalidates exactly
// the affected cached scores and store rows, so every request after Apply
// returns reflects the mutated graph:
//
//	res, _ := srv.Apply(ctx, []agl.Mutation{
//		agl.AddEdge(42, 7, 1.0),
//		agl.UpdateNodeFeat(7, newFeat),
//	})
//	// res.Version advanced; res.Errs reports per-mutation failures.
//
// Link models (ModelConfig.EdgeHead set) additionally answer pair requests
// with srv.ScoreLink(ctx, src, dst): warm pairs are two store lookups plus
// one pairwise-head forward, unseen endpoints fall back to the cold
// extraction path.
//
// Always-on observability: the server samples per-interval counters into a
// fixed-size flight-recorder ring (ServeConfig.FlightPath mirrors it to a
// compact binary file); srv.Flight() snapshots it and cmd/aglmetrics reads
// a dump post-hoc.
func Serve(cfg ServeConfig, m *Model, g *Graph, store EmbeddingStore) (*Server, error) {
	return serve.New(cfg, m, g, store)
}
