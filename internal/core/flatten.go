package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"

	"agl/internal/dfs"
	"agl/internal/mapreduce"
	"agl/internal/sampling"
	"agl/internal/wire"
)

// Target marks a node whose k-hop neighborhood GraphFlat must materialize,
// together with its supervision.
type Target struct {
	Label    int64
	LabelVec []float64
}

// FlatConfig parameterizes GraphFlat.
type FlatConfig struct {
	// Hops is K, the neighborhood radius; must match the model depth.
	Hops int
	// MaxNeighbors caps each node's in-edges (0 = no sampling). Every node
	// has one sampled in-edge set, a function of (Seed, node, its in-edges)
	// only, and a GraphFeature is the k-hop BFS of that sampled graph.
	MaxNeighbors int
	// Strategy picks which in-edges survive sampling (default uniform).
	Strategy sampling.Strategy
	// Seed drives the deterministic per-node sampling decision; GraphInfer
	// and the serving tier keep the same in-edges when given the same
	// MaxNeighbors, Strategy and Seed.
	Seed int64
	// HubThreshold enables re-indexing when MaxNeighbors > 0: the in-edge
	// traffic of a node whose in-degree exceeds the threshold is split
	// across suffixed shuffle keys, each cut to MaxNeighbors before the
	// merge (0 = disabled). It changes the shuffle's layout, never which
	// in-edges are kept.
	HubThreshold int

	// EdgeTargets switches GraphFlat to edge-level mode (link prediction):
	// instead of per-node TrainRecords, Flatten emits one wire.LinkRecord
	// per pair carrying the merged k-hop neighborhood of both endpoints.
	// Mutually exclusive with node targets.
	EdgeTargets []EdgeTarget

	NumMappers  int
	NumReducers int
	TempDir     string
	MaxAttempts int
	Faults      mapreduce.FaultInjector

	// Output, when set, receives the final records as the one GraphFlat
	// dataset layout: Partitions part files plus a partitions.json manifest,
	// read back with OpenPartitions and streamed one partition at a time by
	// TrainPartitions / ScorePartitions. FlatResult.Records is then nil.
	// Unset, the records are collected in FlatResult.Records instead.
	Output *dfs.Dir

	// SpillRounds routes intermediate round data through dfs part files in
	// TempDir instead of memory — the industrial-scale mode where a round's
	// shuffle exceeds RAM. Results are identical to the in-memory mode.
	// With Output set as well, the final round never materializes in RAM.
	// A round's dataset is removed once read, and every one if Flatten fails.
	SpillRounds bool

	// Partitions is the number of part files Output's records are
	// hash-partitioned into by target id (the pair's source endpoint in edge
	// mode); 0 selects 1, whose one part file holds the records in the order
	// of FlatResult.Records. Pick it so one partition fits in memory.
	// Requires Output.
	Partitions int
}

func (c FlatConfig) withDefaults() FlatConfig {
	if c.Hops <= 0 {
		c.Hops = 2
	}
	if c.Strategy == nil {
		c.Strategy = sampling.Uniform{}
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	return c
}

// engine is the one message-passing scheme behind GraphFlat and GraphInfer
// (paper §3.2.1, §3.4): a degree job, a join round that seeds every node's
// state, then K rounds that merge the states of a node's sampled in-edge
// neighbors into its own and propagate the result along its out-edges. The
// two pipelines differ only in the job: what the state is and how it merges.
type engine struct {
	what, name string // "GraphFlat"/"flat": error prefix and MapReduce job prefix

	maxNeighbors int
	strategy     sampling.Strategy
	seed         int64
	hubThreshold int

	mr    mapreduce.Config
	spill bool
}

func (c FlatConfig) engine() engine {
	return engine{
		what: "GraphFlat", name: "flat",
		maxNeighbors: c.MaxNeighbors, strategy: c.Strategy, seed: c.Seed, hubThreshold: c.HubThreshold,
		mr: mapreduce.Config{NumMappers: c.NumMappers, NumReducers: c.NumReducers,
			TempDir: c.TempDir, MaxAttempts: c.MaxAttempts, Faults: c.Faults},
		spill: c.SpillRounds,
	}
}

// job is what one pipeline carries along the sampled graph. State is opaque
// to the engine: GraphFlat's is an encoded wire.Subgraph, GraphInfer's an
// encoded wire.Embedding.
type job struct {
	// seed encodes a node's round-0 state from its node-table row.
	seed func(id int64, feat []float64, deg float64) []byte
	// merge opens round r's mergeFunc for one reduce-task attempt
	// (GraphInfer's runs its own fork of model slice r).
	merge func(round int) mergeFunc
	// block bounds a merge block: a reduce task holds nodes back until
	// they and their kept in-edges number block, then merges them in one
	// call. Zero merges node by node.
	block int
}

// mergeNode is one node of a merge block: its key, self state, kept
// in-edges and out-edges going in, and its new state coming out.
type mergeNode struct {
	key        string
	id         int64
	self       []byte
	kept, outs []*flatMsg
	state      []byte
}

// mergeFunc folds the states riding each block node's kept in-edges into
// the node's own state. It sets each node's new state, which the engine
// propagates; in the final round it sets the finished shuffle value for the
// node instead, nil to emit nothing.
type mergeFunc func(block []mergeNode, final bool) error

// passes is what engine.run hands back: the last round's output plus the
// accounting of every round that ran.
type passes struct {
	out      mapreduce.Input
	stats    []*mapreduce.Stats
	inDeg    map[int64]int
	weighted map[int64]float64
	hubs     int
}

// run drives the rounds: degrees, hub set, the join round (which attaches
// node features to out-edges — the paper's "in-edge information: feature of
// the in-edge and the neighbor node"), then K merge/propagate rounds, each
// preceded by a re-index/sample/invert job for hub keys when re-indexing is
// on (paper Figure 3). The re-index job reads only the in-edges addressed
// to hubs; the merge job reads the rest of the round's input followed by
// what the re-index job kept, so a key's values keep their input order.
func (e engine) run(tables mapreduce.Input, rounds int, j job) (*passes, error) {
	p := &passes{}
	var err error
	cfg := e.mr
	cfg.Name = e.name + "-degrees"
	p.weighted, p.inDeg, err = WeightedInDegrees(tables, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s degrees: %w", e.what, err)
	}
	// Hub set for re-indexing: a hub's key -> number of suffix shards.
	// Without sampling there is nothing to cut per shard, so nothing to
	// re-index.
	hubs := map[string]int{}
	if e.hubThreshold > 0 && e.maxNeighbors > 0 {
		for id, d := range p.inDeg {
			if d > e.hubThreshold {
				hubs[key64(id)] = (d + e.hubThreshold - 1) / e.hubThreshold
			}
		}
	}
	p.hubs = len(hubs)
	hubIn := func(kv mapreduce.KeyValue) bool { return kv.Value[0] == tagInEdge && hubs[kv.Key] > 1 }
	rest := func(kv mapreduce.KeyValue) bool { return !hubIn(kv) }

	var in mapreduce.Input
	step := func(name string, mapper mapreduce.Mapper, reducer mapreduce.Reducer, input mapreduce.Input) error {
		out, stats, err := e.runRound(name, mapper, reducer, input)
		if err != nil {
			release(in)
			return fmt.Errorf("core: %s %s: %w", e.what, name, err)
		}
		p.out, p.stats = out, append(p.stats, stats)
		return nil
	}
	if err := step(e.name+"-join", joinMapper(), joinReducer(p.weighted, j.seed), tables); err != nil {
		return nil, err
	}
	for round := 1; round <= rounds; round++ {
		// Only in holds the previous round's output now: it is garbage, and
		// its spilled datasets are released, once the round's jobs have read
		// it (or one of them has failed, in step).
		in, p.out = p.out, nil
		if len(hubs) > 0 {
			if err := step(fmt.Sprintf("%s-reindex-%d", e.name, round), reindexMapper(hubs), e.reindexReducer(), mapreduce.Filter{In: in, Keep: hubIn}); err != nil {
				return nil, err
			}
			in = mapreduce.Concat{mapreduce.Filter{In: in, Keep: rest}, p.out}
		}
		if err := step(fmt.Sprintf("%s-merge-%d", e.name, round), mapreduce.IdentityMapper, e.mergeReducer(j, round, round == rounds), in); err != nil {
			return nil, err
		}
		release(in)
	}
	return p, nil
}

// FlatResult is GraphFlat's output: one serialized TrainRecord (the triple
// <TargetedNodeId, Label, GraphFeature>) per target node, plus accounting.
type FlatResult struct {
	// Records holds the final records in memory when FlatConfig.Output is
	// unset; with Output set it is nil and the records live only in the
	// output dataset's part files.
	Records     [][]byte
	RoundStats  []*mapreduce.Stats
	InDegrees   map[int64]int
	WeightedDeg map[int64]float64
	HubCount    int
	// Partitioned is the manifest of the output dataset (nil when
	// FlatConfig.Output was unset).
	Partitioned *PartitionManifest
}

// TotalShuffledBytes sums shuffle volume over all rounds.
func (r *FlatResult) TotalShuffledBytes() int64 { return shuffledBytes(r.RoundStats) }

func shuffledBytes(rounds []*mapreduce.Stats) int64 {
	var n int64
	for _, s := range rounds {
		n += s.BytesShuffled
	}
	return n
}

// Flatten runs the GraphFlat pipeline over node/edge table records (see
// TableRecords) producing the k-hop neighborhood of every target: the
// engine's rounds with a wire.Subgraph as the state.
func Flatten(cfg FlatConfig, tables mapreduce.Input, targets map[int64]Target) (*FlatResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.EdgeTargets) > 0 {
		if len(targets) > 0 {
			return nil, fmt.Errorf("core: FlatConfig.EdgeTargets and node targets are mutually exclusive (got %d pairs and %d node targets)",
				len(cfg.EdgeTargets), len(targets))
		}
		return flattenEdges(cfg, tables)
	}
	return flattenNodes(cfg, tables, targets)
}

// flattenNodes is the node-target pipeline (the original GraphFlat mode);
// flattenEdges reuses it to materialize every pair endpoint's neighborhood.
func flattenNodes(cfg FlatConfig, tables mapreduce.Input, targets map[int64]Target) (*FlatResult, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.engine().run(tables, cfg.Hops, job{
		seed: func(id int64, feat []float64, deg float64) []byte {
			return wire.EncodeSubgraph(nil, &wire.Subgraph{Target: id, Nodes: []wire.SGNode{{ID: id, Feat: feat, Deg: deg}}})
		},
		merge: func(int) mergeFunc { return subgraphMerge(targets) },
	})
	if err != nil {
		return nil, err
	}
	res := &FlatResult{RoundStats: p.stats, InDegrees: p.inDeg, WeightedDeg: p.weighted, HubCount: p.hubs}
	return res.deliver(cfg, p.out, nil)
}

// deliver lands the final round's records. With cfg.Output set they stream
// straight into the dataset's hash-partitioned part files (by target id, or
// by the source endpoint of pairs) and nothing is materialized — with
// SpillRounds the records go disk to disk; otherwise they are collected
// into res.Records.
func (res *FlatResult) deliver(cfg FlatConfig, final mapreduce.Input, pairs []EdgeTarget) (*FlatResult, error) {
	defer release(final)
	res.Records = nil
	if cfg.Output != nil {
		man, err := writePartitionedOutput(cfg, final, pairs)
		if err != nil {
			return nil, fmt.Errorf("core: GraphFlat output: %w", err)
		}
		res.Partitioned = man
		return res, nil
	}
	if err := scanPairs(final, func(kv mapreduce.KeyValue) error {
		res.Records = append(res.Records, kv.Value)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: GraphFlat collect: %w", err)
	}
	return res, nil
}

// scanPairs streams every pair of in to fn, in order.
func scanPairs(in mapreduce.Input, fn func(kv mapreduce.KeyValue) error) error {
	splits, err := in.Splits(1)
	if err != nil {
		return err
	}
	for _, split := range splits {
		if err := split(fn); err != nil {
			return err
		}
	}
	return nil
}

// subgraphMerge is GraphFlat's merge (paper Figure 2): the kept in-edges and
// the neighborhoods they carry are unioned into the node's own, which after
// round r is its r-hop neighborhood in the sampled graph. The final round
// wraps a target's neighborhood in its TrainRecord and drops everyone else.
func subgraphMerge(targets map[int64]Target) mergeFunc {
	return func(block []mergeNode, final bool) error {
		for i := range block {
			n := &block[i]
			tgt, isTarget := targets[n.id]
			if final && !isTarget {
				continue
			}
			sg, err := wire.DecodeSubgraph(wire.NewReader(n.self))
			if err != nil {
				return err
			}
			seenN, seenE := sg.NewSeenSets()
			for _, in := range n.kept {
				from, err := wire.DecodeSubgraph(wire.NewReader(in.State))
				if err != nil {
					return err
				}
				ek := [2]int64{in.Src, n.id}
				if !seenE[ek] {
					seenE[ek] = true
					sg.Edges = append(sg.Edges, wire.SGEdge{Src: in.Src, Dst: n.id, Weight: in.W, Feat: in.EFeat})
				}
				sg.MergeInto(from, seenN, seenE)
			}
			if final {
				n.state = wire.EncodeTrainRecord(&wire.TrainRecord{TargetID: n.id, Label: tgt.Label, LabelVec: tgt.LabelVec, SG: sg})
			} else {
				n.state = wire.EncodeSubgraph(nil, sg)
			}
		}
		return nil
	}
}

// runRound executes one MapReduce round, routing its output either through
// memory (default) or through dfs part files (SpillRounds), and returns the
// round's pairs as the next round's input, for its last reader to release.
func (e engine) runRound(name string, mapper mapreduce.Mapper, reducer mapreduce.Reducer, input mapreduce.Input) (mapreduce.Input, *mapreduce.Stats, error) {
	cfg := e.mr
	cfg.Name = name
	if e.spill {
		spillRoot := cfg.TempDir
		if spillRoot == "" {
			spillRoot = os.TempDir()
		}
		path, err := os.MkdirTemp(spillRoot, "agl-"+name+"-")
		if err != nil {
			return nil, nil, err
		}
		dir, err := dfs.Create(path)
		if err != nil {
			return nil, nil, err
		}
		stats, err := mapreduce.Run(cfg, mapper, reducer, input, mapreduce.DFSOutput{Dir: dir})
		if err != nil {
			_ = dir.Remove() // best effort: the round's own error is the one to report
		}
		return mapreduce.DFSPairs{Dir: dir}, stats, err
	}
	out := mapreduce.NewMemOutput()
	stats, err := mapreduce.Run(cfg, mapper, reducer, input, out)
	return mapreduce.Pairs(out.Pairs()), stats, err
}

// release removes the spilled round datasets behind in once nothing reads
// it again; in-memory rounds have nothing to remove.
func release(in mapreduce.Input) {
	switch in := in.(type) {
	case mapreduce.DFSPairs:
		_ = in.Dir.Remove() // best effort: a leftover costs disk, never a result
	case mapreduce.Filter:
		release(in.In)
	case mapreduce.Concat:
		for _, c := range in {
			release(c)
		}
	}
}

func key64(id int64) string { return strconv.FormatInt(id, 10) }

// joinMapper emits node rows keyed by node and edge rows keyed by SOURCE,
// so the join reducer can attach the source's features to each out-edge.
func joinMapper() mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		row, err := DecodeTableRow(rec)
		if err != nil {
			return err
		}
		if row.IsNode {
			m := flatMsg{Tag: tagNodeRow, Feat: row.Node.Feat}
			return emit(mapreduce.KeyValue{Key: key64(row.Node.ID), Value: m.encode()})
		}
		m := flatMsg{Tag: tagOutEdge, Dst: row.Edge.Dst, W: row.Edge.Weight, EFeat: row.Edge.Feat}
		return emit(mapreduce.KeyValue{Key: key64(row.Edge.Src), Value: m.encode()})
	})
}

// gather streams one node's shuffle values into the three kinds of
// information of paper §3.2.1. Values come off the shuffle one at a time;
// node is the tagNodeRow message in the join round and the tagSelf message
// in every later one (nil when the key has neither).
func gather(key string, values mapreduce.ValueIter, nodeTag byte) (id int64, node *flatMsg, outs, ins []*flatMsg, err error) {
	if id, err = strconv.ParseInt(key, 10, 64); err != nil {
		return
	}
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		var m *flatMsg
		if m, err = decodeMsg(v); err != nil {
			return
		}
		switch {
		case m.Tag == nodeTag:
			node = m
		case m.Tag == tagOutEdge:
			outs = append(outs, m)
		case m.Tag == tagInEdge && nodeTag == tagSelf:
			ins = append(ins, m)
		default:
			err = fmt.Errorf("core: reducer for node %d got tag %d", id, m.Tag)
			return
		}
	}
	err = values.Err()
	return
}

// propagate emits a node's new state as its self info, passes its out-edge
// info on to the next round, and sends the state along every out-edge as the
// destination's in-edge info (source id, edge weight and features, state).
func propagate(emit mapreduce.Emit, key string, id int64, state []byte, outs []*flatMsg) error {
	sm := flatMsg{Tag: tagSelf, State: state}
	if err := emit(mapreduce.KeyValue{Key: key, Value: sm.encode()}); err != nil {
		return err
	}
	for _, o := range outs {
		if err := emit(mapreduce.KeyValue{Key: key, Value: o.encode()}); err != nil {
			return err
		}
		im := flatMsg{Tag: tagInEdge, Src: id, W: o.W, EFeat: o.EFeat, State: state}
		if err := emit(mapreduce.KeyValue{Key: key64(o.Dst), Value: im.encode()}); err != nil {
			return err
		}
	}
	return nil
}

// joinReducer seeds the message passing: each node's state starts from its
// row (features and normalization degree) and is propagated to every
// destination it points at.
func joinReducer(weightedDeg map[int64]float64, seed func(id int64, feat []float64, deg float64) []byte) mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		id, row, outs, _, err := gather(key, values, tagNodeRow)
		if err != nil {
			return err
		}
		if row == nil {
			// Edge rows referencing a node absent from the node table:
			// drop, matching the Build validation upstream.
			return nil
		}
		deg := weightedDeg[id]
		if deg == 0 {
			deg = 1
		}
		return propagate(emit, key, id, seed(id, row.Feat, deg), outs)
	})
}

// keepInEdges is the sampling decision, the only place in the package that
// consults a Strategy: it sorts a node's candidate in-edges into the
// canonical (src, weight) order and keeps, in that order, the limit
// in-edges with the highest priorities, each a function of (seed, node,
// src, weight) alone (ties go to the earlier in-edge). No round, depth or
// shard enters, so a node keeps the same in-edges in every round of
// GraphFlat, in GraphInfer and in LocalFlattener, and deciding over a
// subset first (a re-indexed hub's shard) keeps every in-edge the whole
// decision keeps. ins is reordered in place.
func keepInEdges[E any](strategy sampling.Strategy, seed, node int64, limit int, ins []E, key func(E) (src int64, w float64)) []E {
	sort.SliceStable(ins, func(a, b int) bool {
		sa, wa := key(ins[a])
		sb, wb := key(ins[b])
		if sa != sb {
			return sa < sb
		}
		return wa < wb
	})
	if limit <= 0 || len(ins) <= limit {
		return ins
	}
	prio := make([]float64, len(ins))
	for i, in := range ins {
		src, w := key(in)
		prio[i] = strategy.Priority(sampling.EdgeU(seed, node, src), w)
	}
	idx := sampling.Top(prio, limit)
	out := make([]E, len(idx))
	for i, at := range idx {
		out[i] = ins[at]
	}
	return out
}

func msgKey(m *flatMsg) (int64, float64) { return m.Src, m.W }

// mergeReducer is one merge/propagate round (paper Figure 2) for any job:
// each reduce-task attempt runs its own mergeTask over a fresh mergeFunc.
func (e engine) mergeReducer(j job, round int, final bool) mapreduce.Reducer {
	return mapreduce.PerTask(func() (mapreduce.Holder, error) {
		return &mergeTask{e: e, merge: j.merge(round), final: final, max: j.block}, nil
	})
}

// mergeTask is one reduce-task attempt of a merge round. For each node it
// gathers the self, out-edge and in-edge info and keeps the sampled
// in-edges, then holds the node in the current block; a full block (and
// the last one, at Flush) is merged in one call, and its nodes are
// propagated — in the final round, their finished values emitted — in the
// order they arrived, which is key order.
type mergeTask struct {
	e     engine
	merge mergeFunc
	final bool
	block []mergeNode
	size  int // nodes and kept in-edges held in block
	max   int
}

// Reduce implements mapreduce.Reducer.
func (t *mergeTask) Reduce(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
	id, self, outs, ins, err := gather(key, values, tagSelf)
	if err != nil {
		return err
	}
	if self == nil {
		// In-edge info addressed to a node that has no self info (not in
		// the node table): nothing to merge into.
		return nil
	}
	kept := keepInEdges(t.e.strategy, t.e.seed, id, t.e.maxNeighbors, ins, msgKey)
	t.block = append(t.block, mergeNode{key: key, id: id, self: self.State, kept: kept, outs: outs})
	if t.size += 1 + len(kept); t.size < t.max {
		return nil
	}
	return t.Flush(emit)
}

// Flush implements mapreduce.Holder: it merges the held block and emits
// its nodes.
func (t *mergeTask) Flush(emit mapreduce.Emit) error {
	if len(t.block) == 0 {
		return nil
	}
	if err := t.merge(t.block, t.final); err != nil {
		return err
	}
	for _, n := range t.block {
		var err error
		switch {
		case !t.final:
			err = propagate(emit, n.key, n.id, n.state, n.outs)
		case n.state != nil:
			err = emit(mapreduce.KeyValue{Key: n.key, Value: n.state})
		}
		if err != nil {
			return err
		}
	}
	clear(t.block) // drop the held states before the next block fills
	t.block, t.size = t.block[:0], 0
	return nil
}

// hubShard assigns an in-edge to one of its hub destination's shards: a pure
// function of (src, shards), so all of a source's parallel edges share a
// shard, and every round and both pipelines split a hub's in-edges alike.
func hubShard(src int64, shards int) int {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(src))
	h := fnv.New32a()
	h.Write(b[:])
	return int(h.Sum32() % uint32(shards))
}

// reindexMapper splits the in-edge messages addressed to hubs — the only
// messages a re-index job reads — across suffixed shuffle keys so no single
// reducer drowns (paper §3.2.2, "re-indexing"). Only the source id is read
// off an in-edge value (tag, src, ...); the state behind it is never
// decoded.
func reindexMapper(hubs map[string]int) mapreduce.Mapper {
	return mapreduce.PairMapperFunc(func(kv mapreduce.KeyValue, emit mapreduce.Emit) error {
		r := wire.NewReader(kv.Value[1:])
		src := r.Varint()
		if err := r.Err(); err != nil {
			return fmt.Errorf("core: in-edge to hub %s: %w", kv.Key, err)
		}
		kv.Key += "#" + strconv.Itoa(hubShard(src, hubs[kv.Key]))
		return emit(kv)
	})
}

// reindexReducer samples each suffixed shard of a hub's in-edges down to
// MaxNeighbors, then inverts the key back to the original node id (paper
// §3.2.2, "sampling" plus "inverted indexing"). The k best of a union are
// the k best of its parts' k best, so the merge round's keepInEdges keeps
// exactly what it would keep unsharded.
func (e engine) reindexReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		orig, _, _ := strings.Cut(key, "#")
		id, err := strconv.ParseInt(orig, 10, 64)
		if err != nil {
			return err
		}
		var ins []*flatMsg
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			m, err := decodeMsg(v)
			if err != nil {
				return err
			}
			ins = append(ins, m)
		}
		if err := values.Err(); err != nil {
			return err
		}
		for _, m := range keepInEdges(e.strategy, e.seed, id, e.maxNeighbors, ins, msgKey) {
			if err := emit(mapreduce.KeyValue{Key: orig, Value: m.encode()}); err != nil {
				return err
			}
		}
		return nil
	})
}
