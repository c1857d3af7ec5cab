package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"agl"
	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/ps"
	"agl/internal/sampling"
	"agl/internal/serve"
	"agl/internal/sparse"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// artifacts are what the offline pipeline produced for this workload: every
// layer measurement below runs on them, so each number is the layer's cost
// at this workload's shapes.
type artifacts struct {
	ds   *agl.Dataset
	in   *pipelineInput
	pass *pass
}

// opBudget is roughly how long one layer measurement may take.
const opBudget = 60 * time.Millisecond

// timeOp returns the median nanoseconds per call of fn: it sizes a batch of
// calls to about a ninth of budget, then times nine batches.
func timeOp(budget time.Duration, fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/18 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	samples := make([]float64, 9)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// spanned runs fn inside a span named after the layer it measures.
func spanned(tr *tracer, name string, fn func() error) error {
	end := tr.begin(name)
	defer end()
	return fn()
}

// offlineLayers measures the layers of the offline pipeline one public call
// at a time. It runs for every workload: serve workloads build their model
// through the same pipeline during set-up.
func offlineLayers(res *result, art *artifacts, tr *tracer) error {
	steps := []struct {
		name string
		fn   func(*result, *artifacts) error
	}{
		{"wire", wireLayer},
		{"sampling", samplingLayer},
		{"mapreduce", mapreduceLayer},
		{"gnn", trainStepLayers},
		{"ps", psLayer},
		{"serve.store", storeLayer},
	}
	for _, s := range steps {
		if err := spanned(tr, s.name, func() error { return s.fn(res, art) }); err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	return nil
}

func sampleRecords(art *artifacts, n int) [][]byte {
	recs := art.pass.flat.Records
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

func wireLayer(res *result, art *artifacts) error {
	encoded := sampleRecords(art, 128)
	var kb float64
	for _, r := range encoded {
		kb += float64(len(r)) / 1024
	}
	decoded, err := core.DecodeRecords(encoded)
	if err != nil {
		return err
	}
	res.set("wire.decode_train_ns_per_kb", timeOp(opBudget, func() {
		for _, r := range encoded {
			wire.DecodeTrainRecord(r)
		}
	})/kb)
	res.set("wire.encode_train_ns_per_kb", timeOp(opBudget, func() {
		for _, r := range decoded {
			wire.EncodeTrainRecord(r)
		}
	})/kb)
	return nil
}

// samplingLayer times weighted sampling at the degree of the graph's
// largest hub, where the sampler is slowest per call.
func samplingLayer(res *result, art *artifacts) error {
	hub := 0
	for _, d := range art.ds.G.InDegrees() {
		hub = max(hub, d)
	}
	k := art.in.flat.MaxNeighbors
	if hub <= k {
		return fmt.Errorf("largest in-degree %d does not exceed MaxNeighbors %d", hub, k)
	}
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, hub)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(5))
	}
	ns := timeOp(opBudget, func() { sampling.Weighted{}.Sample(rng, hub, weights, k) })
	res.set("sampling.weighted_ns_per_edge", ns/float64(hub))
	return nil
}

// mapreduceLayer runs the engine with an identity mapper and reducer over
// the workload's own GraphFeature records, one key per record, at about a
// flatten round's shuffle volume (capped so it stays a fraction of a
// second). What flatten's rounds cost beyond this is its reducers.
func mapreduceLayer(res *result, art *artifacts) error {
	recs := art.pass.flat.Records
	const capBytes = 48 << 20
	want := int(res.flatShuffledMB * (1 << 20) / float64(max(len(art.pass.flat.RoundStats), 1)))
	want = min(want, capBytes)
	var input [][]byte
	total := 0
	for i := 0; total < want; i++ {
		r := recs[i%len(recs)]
		// The key rides in front of the payload; the mapper splits it off.
		rec := append(strconv.AppendInt(nil, int64(i), 10), 0)
		input = append(input, append(rec, r...))
		total += len(r)
	}
	mapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		cut := bytes.IndexByte(rec, 0)
		return emit(mapreduce.KeyValue{Key: string(rec[:cut]), Value: rec[cut+1:]})
	})
	reducer := mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		for v, ok := values.Next(); ok; v, ok = values.Next() {
			if err := emit(mapreduce.KeyValue{Key: key, Value: append([]byte(nil), v...)}); err != nil {
				return err
			}
		}
		return values.Err()
	})
	stats, err := mapreduce.Run(mapreduce.Config{Name: "bench-identity", NumReducers: 4, TempDir: art.in.tmpDir},
		mapper, reducer, mapreduce.MemInput(input), mapreduce.NewMemOutput())
	if err != nil {
		return err
	}
	res.set("mapreduce.identity_mb_per_s", float64(stats.BytesShuffled)/(1<<20)/stats.Wall.Seconds())
	return nil
}

// trainStepLayers times one frozen 64-target batch through batch assembly,
// adjacency preparation, forward and backward, and the dense and sparse
// kernels underneath at the same shapes.
func trainStepLayers(res *result, art *artifacts) error {
	encoded := sampleRecords(art, 64)
	recs, err := core.DecodeRecords(encoded)
	if err != nil {
		return err
	}
	// A private copy: forward and backward write activations and gradients.
	blob, err := gnn.MarshalModel(art.pass.train.Model)
	if err != nil {
		return err
	}
	model, err := gnn.UnmarshalModel(blob)
	if err != nil {
		return err
	}
	classes := model.Cfg.Classes
	ws := tensor.NewWorkspace()
	res.set("core.trainer.assemble_us_per_batch", timeOp(opBudget, func() {
		ws.Reset()
		core.AssembleBatchWS(ws, recs, classes, true)
	})/1e3)

	b, err := core.AssembleBatch(recs, classes, true)
	if err != nil {
		return err
	}
	opt := gnn.RunOptions{Pruning: art.in.train.Pruning, Threads: art.in.train.AggThreads, Train: true, Workspace: ws}
	var prepNs, fwdNs, bwdNs []float64
	for start := time.Now(); len(fwdNs) < 5 || time.Since(start) < 3*opBudget; {
		ws.Reset()
		t0 := time.Now()
		prep := model.Prepare(b.Graph, opt)
		t1 := time.Now()
		st := model.Forward(b.Graph, prep, opt)
		t2 := time.Now()
		_, dLogits := nn.SigmoidBCEWS(ws, st.Logits, b.LabelVecs)
		model.Params().ZeroGrads()
		t3 := time.Now()
		model.Backward(st, dLogits)
		t4 := time.Now()
		prepNs = append(prepNs, float64(t1.Sub(t0)))
		fwdNs = append(fwdNs, float64(t2.Sub(t1)))
		bwdNs = append(bwdNs, float64(t4.Sub(t3)))
	}
	res.set("gnn.prepare_us", median(prepNs)/1e3)
	res.set("gnn.forward_ms", median(fwdNs)/1e6)
	res.set("gnn.backward_ms", median(bwdNs)/1e6)

	adj, x := b.Graph.Adj, b.Graph.X
	var norm *sparse.CSR
	res.set("sparse.prepare_us", timeOp(opBudget, func() {
		ws.Reset()
		norm = adj.AddSelfLoopsWS(ws, 1).SymNormalizeWS(ws)
		sparse.NewAggregatorWS(ws, norm, opt.Threads)
	})/1e3)
	norm = adj.AddSelfLoops(1).SymNormalize()
	agg := tensor.New(x.Rows, x.Cols)
	res.set("sparse.spmm_us", timeOp(opBudget, func() { norm.SpMM(agg, x) })/1e3)

	// The first layer's dense product: batch nodes x InDim times InDim x Hidden.
	wgt := tensor.New(x.Cols, model.Cfg.Hidden)
	wgt.RandFill(rand.New(rand.NewSource(1)), 1)
	dst := tensor.New(x.Rows, model.Cfg.Hidden)
	ns := timeOp(opBudget, func() { tensor.MatMul(dst, x, wgt) })
	res.set("tensor.matmul_us", ns/1e3)
	// Operation count computed from the shapes, not measured.
	res.set("tensor.matmul_gflops", 2*float64(x.Rows)*float64(x.Cols)*float64(model.Cfg.Hidden)/ns)
	return nil
}

// psLayer times one pull and one push of the whole parameter set against
// an in-process parameter-server cluster of the workload's shard count.
func psLayer(res *result, art *artifacts) error {
	blob, err := gnn.MarshalModel(art.pass.train.Model)
	if err != nil {
		return err
	}
	model, err := gnn.UnmarshalModel(blob)
	if err != nil {
		return err
	}
	cluster := ps.NewCluster(max(art.in.train.PSShards, 1), model.Params(),
		func() nn.Optimizer { return nn.NewAdam(0.01) }, art.in.train.Mode)
	client := cluster.Client()
	client.Register()
	defer client.Deregister()
	var opErr error
	res.set("ps.pull_us", timeOp(opBudget, func() {
		if err := client.PullInto(model.Params()); err != nil {
			opErr = err
		}
	})/1e3)
	res.set("ps.push_us", timeOp(opBudget, func() {
		if err := client.PushGrads(model.Params()); err != nil {
			opErr = err
		}
	})/1e3)
	return opErr
}

// storeLayer builds the workload's embeddings into each store backend and
// times opening the file, one LookupInto, and the bytes a row costs.
func storeLayer(res *result, art *artifacts) error {
	embs := art.pass.inf.Embeddings
	mem, err := serve.NewStore(0, embs)
	if err != nil {
		return err
	}
	ids := make([]int64, 0, len(embs))
	for id := range embs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	for _, backend := range []string{serve.BackendMem, serve.BackendMmap, serve.BackendQuant} {
		path := filepath.Join(art.in.tmpDir, "store."+backend)
		if _, closeSaved, err := (serve.StoreSpec{Backend: backend, SavePath: path}).Open(embs); err != nil {
			return fmt.Errorf("save %s store: %w", backend, err)
		} else if err := closeSaved(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		res.set("serve.store.bytes_per_row."+backend, float64(fi.Size())/float64(mem.Len()))

		var st serve.Store
		var closeStore func() error
		var openMs []float64
		for i := 0; i < 5; i++ {
			if closeStore != nil {
				if err := closeStore(); err != nil {
					return err
				}
			}
			t0 := time.Now()
			st, closeStore, err = (serve.StoreSpec{Backend: backend, Path: path}).Open(nil)
			if err != nil {
				return fmt.Errorf("open %s store: %w", backend, err)
			}
			openMs = append(openMs, ms(time.Since(t0)))
		}
		res.set("serve.store.open_ms."+backend, median(openMs))
		buf := make([]float64, 0, st.Dim())
		i := 0
		res.set("serve.store.lookup_ns."+backend, timeOp(opBudget, func() {
			buf, _ = st.LookupInto(buf, ids[i%len(ids)])
			i++
		}))
		if err := closeStore(); err != nil {
			return err
		}
	}
	return nil
}

// offlineLadder prints the offline ladders' rung-to-rung gaps that no other
// metric names: what an epoch holds beyond its workers' busy time, what
// training holds beyond its epochs, and what flatten's rounds cost beyond a
// bare engine moving the same bytes.
func offlineLadder(res *result) {
	res.set("ladder.gap.train_startup_s", res.trainStartupS)
	res.set("ladder.gap.epoch_other_s", res.get("core.trainer.epoch_s_median")-res.trainBusyPerEpochS)
	if rate := res.get("mapreduce.identity_mb_per_s"); rate > 0 {
		res.set("ladder.gap.flat_reducers_s", res.flatRoundWallS-res.flatShuffledMB/rate)
	}
}

// finishTrace writes the span file and reports how many spans it holds.
func finishTrace(res *result, tr *tracer, env *runEnv) error {
	res.set("trace.spans", float64(tr.count()))
	return tr.writeFile(filepath.Join(env.outDir, "trace-"+res.workload+".json"))
}
