package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"agl"
	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/wire"
)

// minPasses is the least number of timed pipeline passes in a run; single
// passes of the same input differ by a quarter, medians of three do not.
const minPasses = 3

// auditNodes is how many nodes every correctness audit samples.
const auditNodes = 64

// pass is one Flatten -> Train -> Infer run and what it cost.
type pass struct {
	flat  *agl.FlatResult
	train *agl.TrainResult
	inf   *agl.InferResult

	flatS, trainS, inferS float64
	totalS                float64 // the three stages plus record hand-off
	cpuS                  float64
}

// pipelineInput is everything a pass consumes: generated data plus the
// system's configuration.
type pipelineInput struct {
	ds      *agl.Dataset
	targets map[int64]agl.Target
	flat    agl.FlatConfig
	model   agl.ModelConfig
	train   agl.TrainConfig
	tmpDir  string
}

func (in *pipelineInput) inferConfig() agl.InferConfig {
	return agl.InferConfig{MaxNeighbors: in.flat.MaxNeighbors, Strategy: in.flat.Strategy,
		Seed: in.flat.Seed, HubThreshold: in.flat.HubThreshold, KeepEmbeddings: true, TempDir: in.tmpDir}
}

// runPass runs the offline pipeline once. With a tracer, each stage is a
// span under one "pipeline" root; the root's self time is the hand-off.
func runPass(in *pipelineInput, tr *tracer) (*pass, error) {
	p := &pass{}
	endPass := tr.begin("pipeline")
	defer endPass()
	cpu0, t0 := selfCPUSeconds(), time.Now()
	if err := p.flattenAndTrain(in, tr); err != nil {
		return nil, err
	}
	if err := p.infer(in, tr); err != nil {
		return nil, err
	}
	p.totalS = time.Since(t0).Seconds()
	p.cpuS = selfCPUSeconds() - cpu0
	return p, nil
}

// flattenAndTrain runs GraphFlat and GraphTrainer; serve set-up calls it on
// its own so the servers can boot while GraphInfer runs.
func (p *pass) flattenAndTrain(in *pipelineInput, tr *tracer) error {
	flatCfg := in.flat
	flatCfg.TempDir = in.tmpDir
	trainCfg := in.train
	trainCfg.Model = in.model
	trainCfg.Model.InDim = in.ds.G.FeatureDim()

	t0 := time.Now()
	end := tr.begin("core.flatten")
	flat, err := agl.Flatten(flatCfg, in.ds.G, in.targets)
	end()
	if err != nil {
		return fmt.Errorf("flatten: %w", err)
	}
	t1 := time.Now()
	end = tr.begin("core.trainer")
	train, err := agl.Train(trainCfg, flat.Records)
	end()
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	p.flat, p.train = flat, train
	p.flatS, p.trainS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return nil
}

func (p *pass) infer(in *pipelineInput, tr *tracer) error {
	t0 := time.Now()
	end := tr.begin("core.infer")
	inf, err := agl.Infer(in.inferConfig(), p.train.Model, in.ds.G)
	end()
	if err != nil {
		return fmt.Errorf("infer: %w", err)
	}
	p.inf, p.inferS = inf, time.Since(t0).Seconds()
	return nil
}

// labeledTargets returns binary targets for the first n labeled nodes
// (all of them when n is 0), in the generator's order.
func labeledTargets(ds *agl.Dataset, n int) map[int64]agl.Target {
	ids := append(append(append([]int64(nil), ds.Train...), ds.Val...), ds.Test...)
	if n > 0 && n < len(ids) {
		ids = ids[:n]
	}
	return agl.BinaryTargets(ds, ids)
}

func runOffline(w *workload, env *runEnv) (*result, error) {
	spec := w.offline
	res := newResult(w.name, env)
	setupStart := time.Now()

	uug := spec.uug
	uug.Seed = env.seed
	ds, err := agl.NewUUG(uug)
	if err != nil {
		return nil, err
	}
	in := &pipelineInput{ds: ds, targets: labeledTargets(ds, spec.targets),
		flat: spec.flat, model: spec.model, train: spec.train, tmpDir: env.tmpDir}

	// One untimed pass lets the allocator, the page cache behind the spill
	// files and the worker pools reach their steady state.
	if _, err := runPass(in, nil); err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(setupStart).Seconds())

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var passes []*pass
	timedStart := time.Now()
	for {
		// Every pass starts from a collected heap, so one pass's garbage is
		// not the next one's memory peak.
		runtime.GC()
		p, err := runPass(in, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		res.attempted += 3
		elapsed := time.Since(timedStart).Seconds()
		if len(passes) >= minPasses && elapsed+elapsed/float64(len(passes)) > env.seconds {
			break
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	col := func(f func(*pass) float64) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return median(vs)
	}
	pipelineS := col(func(p *pass) float64 { return p.totalS })
	flatS := col(func(p *pass) float64 { return p.flatS })
	trainS := col(func(p *pass) float64 { return p.trainS })
	inferS := col(func(p *pass) float64 { return p.inferS })
	res.set("p50_ms", pipelineS*1000)
	res.set("ops_per_s", float64(len(in.targets))/pipelineS)
	res.set("cpu_s", col(func(p *pass) float64 { return p.cpuS }))
	res.set("pipeline_s", pipelineS)
	res.set("flat_s", flatS)
	res.set("train_s", trainS)
	res.set("infer_s", inferS)
	res.set("core.trainer.epoch_s_median", col(epochSeconds))
	res.trainStartupS = col(trainStartup)
	res.set("proc.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(passes))/(1<<20))
	res.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/float64(len(passes)))
	res.set("proc.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/float64(len(passes))/1e6)
	res.notef("%d timed passes of %d targets over %d nodes", len(passes), len(in.targets), ds.G.NumNodes())

	last := passes[len(passes)-1]
	pipelineStats(res, last, spec.train.Workers)

	// Correctness: GraphInfer agrees with a direct forward pass, and the
	// model learned.
	mismatched, err := auditInfer(res, in, last, env.seed)
	if err != nil {
		return nil, err
	}
	res.attempted += auditNodes
	res.wrong += int64(mismatched)
	if mismatched > 0 {
		res.failf("agl.Infer differs from a direct forward pass on %d of %d audited nodes", mismatched, auditNodes)
	}
	auc, err := agl.Evaluate(last.train.Model, last.flat.Records, agl.EvalConfig{Metric: agl.MetricAUC})
	if err != nil {
		return nil, err
	}
	res.notef("AUC over the flattened targets %.4f (floor %.2f)", auc, spec.aucFloor)
	if auc < spec.aucFloor {
		res.failf("trained model AUC %.4f is below the frozen floor %.2f", auc, spec.aucFloor)
	}

	// Dominance: the stages this workload exists to stress still dominate.
	if share := spec.dominant(flatS, trainS, inferS) / pipelineS; share < spec.minShare {
		res.failf("dominance: stressed stages are %.2f of pipeline_s, need %.2f; the workload no longer tests what it claims", share, spec.minShare)
	} else {
		res.notef("dominance: stressed stages are %.2f of pipeline_s (floor %.2f)", share, spec.minShare)
	}

	if env.traced {
		tr := newTracer()
		traced, err := runPass(in, tr)
		if err != nil {
			return nil, err
		}
		res.set("trace.overhead_frac", traced.totalS/pipelineS-1)
		art := &artifacts{ds: ds, in: in, pass: last}
		if err := offlineLayers(res, art, tr); err != nil {
			return nil, err
		}
		if err := finishTrace(res, tr, env); err != nil {
			return nil, err
		}
		offlineLadder(res)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	return res, nil
}

// pipelineStats derives the per-layer metrics the public calls already
// return in their results.
func pipelineStats(res *result, p *pass, workers int) {
	const mb = 1 << 20
	var wall, mapBusy, reduceBusy time.Duration
	var shuffled, peak, retries int64
	for _, s := range p.flat.RoundStats {
		wall += s.Wall
		mapBusy += s.MapBusy
		reduceBusy += s.ReduceBusy
		shuffled += s.BytesShuffled
		retries += s.Retries
		peak = max(peak, s.PeakGroupBytes)
	}
	var recBytes int
	for _, r := range p.flat.Records {
		recBytes += len(r)
	}
	res.set("core.flatten.rounds", float64(len(p.flat.RoundStats)))
	res.set("core.flatten.shuffled_mb", float64(shuffled)/mb)
	res.set("core.flatten.records_mb", float64(recBytes)/mb)
	res.set("core.flatten.hubs_reindexed", float64(p.flat.HubCount))
	res.set("core.flatten.unattributed_frac", 1-wall.Seconds()/p.flatS)
	res.set("mapreduce.flat.map_busy_s", mapBusy.Seconds())
	res.set("mapreduce.flat.reduce_busy_s", reduceBusy.Seconds())
	res.set("mapreduce.flat.shuffle_mb_per_s", float64(shuffled)/mb/wall.Seconds())
	res.set("mapreduce.flat.peak_group_mb", float64(peak)/mb)
	res.set("mapreduce.flat.retries", float64(retries))
	res.flatRoundWallS = wall.Seconds()
	res.flatShuffledMB = float64(shuffled) / mb

	wall, mapBusy, reduceBusy, shuffled = 0, 0, 0, 0
	for _, s := range p.inf.RoundStats {
		wall += s.Wall
		mapBusy += s.MapBusy
		reduceBusy += s.ReduceBusy
		shuffled += s.BytesShuffled
	}
	res.set("core.infer.rounds", float64(len(p.inf.RoundStats)))
	res.set("core.infer.shuffled_mb", float64(shuffled)/mb)
	res.set("core.infer.unattributed_frac", 1-wall.Seconds()/p.inferS)
	res.set("mapreduce.infer.map_busy_s", mapBusy.Seconds())
	res.set("mapreduce.infer.reduce_busy_s", reduceBusy.Seconds())

	// agl.Train reports busy time per epoch but wall time only in total
	// (workers are not re-joined between epochs), so an epoch's wall time
	// is the total over the epoch count.
	var vec, compute time.Duration
	for _, e := range p.train.History {
		vec += e.VecBusy
		compute += e.ComputeBusy
	}
	epochs := float64(max(len(p.train.History), 1))
	workers = max(workers, 1)
	res.set("core.trainer.vec_busy_s", vec.Seconds())
	res.set("core.trainer.compute_busy_s", compute.Seconds())
	// The share of worker busy time the training pipeline hid: 0 when
	// vectorization and compute ran back to back on every worker.
	if busy := (vec + compute).Seconds(); busy > 0 {
		res.set("core.trainer.overlap_frac", math.Max(0, 1-p.train.Total.Seconds()*float64(workers)/busy))
	}
	res.set("ps.bytes_out_mb", float64(p.train.PSBytesOut)/mb)
	res.set("ps.bytes_in_mb", float64(p.train.PSBytesIn)/mb)
	res.trainBusyPerEpochS = math.Max(vec.Seconds(), compute.Seconds()) / float64(workers) / epochs
}

// trainStartup is what agl.Train spent outside its epochs: building the
// model and the parameter servers, and the final snapshot.
func trainStartup(p *pass) float64 { return p.trainS - p.train.Total.Seconds() }

// epochSeconds is one pass's wall time per training epoch.
func epochSeconds(p *pass) float64 {
	return p.train.Total.Seconds() / float64(max(len(p.train.History), 1))
}

// auditInfer compares GraphInfer's score for auditNodes sampled targets with
// a forward pass over that target's own GraphFeature, the path the paper's
// "original" inference takes. It returns how many differ by more than 1e-9.
//
// The verdict covers targets whose score involves no neighbour sampling:
// the target and each of its in-neighbours have at most MaxNeighbors
// in-edges. Where sampling does apply, GraphFlat and GraphInfer at the seed
// commit do not always keep the same in-edges (a re-indexed hub, and rarely
// a plain sampled node), so those targets are compared too but only
// reported, as a note.
func auditInfer(res *result, in *pipelineInput, p *pass, seed int64) (int, error) {
	sampledAt := func(id int64) bool {
		return in.flat.MaxNeighbors > 0 && p.flat.InDegrees[id] > in.flat.MaxNeighbors
	}
	model := p.train.Model
	differs := func(rec *wire.TrainRecord) (bool, error) {
		b, err := core.AssembleBatch([]*wire.TrainRecord{rec}, model.Cfg.Classes, false)
		if err != nil {
			return false, err
		}
		want := core.ScoresFromLogits(model.Infer(b.Graph, gnn.RunOptions{}).Row(0))
		got, ok := p.inf.Scores[rec.TargetID]
		if !ok || len(got) != len(want) {
			return true, nil
		}
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				return true, nil
			}
		}
		return false, nil
	}
	audited, mismatched, sampledAudited, sampledMismatched := 0, 0, 0, 0
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(p.flat.Records)) {
		if audited == auditNodes {
			break
		}
		rec, err := wire.DecodeTrainRecord(p.flat.Records[i])
		if err != nil {
			return 0, err
		}
		sampled := sampledAt(rec.TargetID)
		for _, e := range rec.SG.Edges {
			sampled = sampled || (e.Dst == rec.TargetID && sampledAt(e.Src))
		}
		if sampled && sampledAudited == auditNodes {
			continue
		}
		bad, err := differs(rec)
		if err != nil {
			return 0, err
		}
		switch {
		case sampled:
			sampledAudited++
			if bad {
				sampledMismatched++
			}
		default:
			audited++
			if bad {
				mismatched++
			}
		}
	}
	if audited < auditNodes {
		return 0, fmt.Errorf("audit found only %d of %d targets whose score involves no sampling", audited, auditNodes)
	}
	if sampledAudited > 0 {
		res.notef("audit: %d of %d targets with sampled in-edges differ from a direct forward pass (reported, not counted; see README.md)", sampledMismatched, sampledAudited)
	}
	return mismatched, nil
}
