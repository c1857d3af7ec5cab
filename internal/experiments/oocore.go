package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/serve"
)

// OOCoreResult records the out-of-core experiment: the full
// flatten -> train -> infer -> serve flow run under a hard GOMEMLIMIT
// smaller than the flattened dataset, comparing the mmap serve-store
// backend against the in-RAM one.
type OOCoreResult struct {
	Nodes      int
	Partitions int
	// FlatBytes is the on-disk size of the partitioned GraphFlat output —
	// the dataset the trainer streams without ever holding at once.
	FlatBytes int64
	// MemLimit is the Go soft memory limit in force during train + serve;
	// OutOfCore reports whether it was genuinely below FlatBytes.
	MemLimit  int64
	OutOfCore bool
	TrainWall time.Duration
	FinalLoss float64
	StoreLen  int
	// RAMOpen is the wall time of opening the store file onto the heap
	// (full read and verify); MmapOpen of mapping it (header checks only).
	RAMOpen, MmapOpen time.Duration
	// WarmRAM / WarmMmap are identical warm-path load tests over the two
	// store backends.
	WarmRAM, WarmMmap ServePhase
	// PeakRSS is the process high-water mark (VmHWM) after the run.
	PeakRSS int64
	Text    string
}

func (r *OOCoreResult) String() string { return r.Text }

// Metrics implements MetricsProvider for the out-of-core flow.
func (r *OOCoreResult) Metrics() map[string]float64 {
	return map[string]float64{
		"mmap_open_ns":     float64(r.MmapOpen),
		"ram_open_ns":      float64(r.RAMOpen),
		"warm_p50_mmap_ns": float64(r.WarmMmap.P50),
		"warm_p50_ram_ns":  float64(r.WarmRAM.P50),
		"peak_rss_bytes":   float64(r.PeakRSS),
	}
}

// OOCore runs the out-of-core data-tier experiment: GraphFlat with
// partitioned spilled output, partition-streaming training under a Go
// memory limit set below the flattened dataset size, then the online
// serving warm path over the mmap store vs the in-RAM store.
//
// When the process already carries a GOMEMLIMIT (the CI e2e run sets one
// in the environment), that limit is honored; otherwise the experiment
// installs half the flattened dataset size for the train+serve phases and
// restores the prior limit on exit.
func OOCore(opt Options) (*OOCoreResult, error) {
	nodes, featDim, partitions, epochs, requests, clients := 12000, 32, 8, 3, 3000, 16
	if opt.Quick {
		nodes, featDim, partitions, epochs, requests, clients = 5000, 16, 4, 2, 1000, 8
	}
	ds, err := datagen.UUG(datagen.UUGConfig{
		Nodes: nodes, FeatDim: featDim, FeatureNoise: 3, Homophily: 0.75, Seed: opt.Seed + 41,
	})
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.TempDir, "oocore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	outDir, err := dfs.Create(filepath.Join(tmp, "flat"))
	if err != nil {
		return nil, err
	}

	res := &OOCoreResult{Nodes: nodes, Partitions: partitions}

	// Phase 1 — GraphFlat, partitioned + spilled: the flattened records go
	// disk to disk and land hash-partitioned by target id. Every node is a
	// target — the neighborhood duplication that makes GraphFeatures dwarf
	// the raw tables is exactly the footprint this tier exists to absorb.
	ids := ds.G.IDs()
	targets := make(map[int64]core.Target, len(ids))
	for _, id := range ids {
		targets[id] = core.Target{Label: int64(ds.LabelOf(id))}
	}
	opt.logf("oocore: flatten %d targets into %d partitions (spilled)", len(targets), partitions)
	flat, err := core.Flatten(core.FlatConfig{
		Hops: 2, MaxNeighbors: 25, Seed: opt.Seed + 42,
		NumReducers: 8, TempDir: tmp,
		Output: outDir, Partitions: partitions, SpillRounds: true,
	}, mapreduce.MemInput(core.TableRecords(ds.G)), targets)
	if err != nil {
		return nil, err
	}
	if flat.Partitioned == nil {
		return nil, fmt.Errorf("oocore: flatten did not produce a partitioned output")
	}
	res.FlatBytes = dirSize(outDir.Path())

	// Phase 2 — install the memory limit. An env-provided GOMEMLIMIT (the
	// CI e2e) wins; otherwise cap the heap at half the flattened bytes so
	// the trainer provably cannot hold the dataset resident.
	prior := debug.SetMemoryLimit(-1)
	res.MemLimit = prior
	if prior == int64(^uint64(0)>>1) { // math.MaxInt64: no limit set
		res.MemLimit = res.FlatBytes / 2
		if min := int64(64 << 20); res.MemLimit < min {
			res.MemLimit = min
		}
		debug.SetMemoryLimit(res.MemLimit)
		defer debug.SetMemoryLimit(prior)
	}
	res.OutOfCore = res.MemLimit < res.FlatBytes

	// Phase 3 — partition-streaming training: one partition resident at a
	// time, the prefetcher decoding the next while workers train.
	parts, err := core.OpenPartitions(outDir.Path())
	if err != nil {
		return nil, err
	}
	opt.logf("oocore: train %d epochs over %d records in %d partitions under %d MiB limit",
		epochs, parts.Records(), parts.NumPartitions(), res.MemLimit>>20)
	tr, err := core.TrainPartitions(core.TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 16,
			Classes: ds.NumClasses, Layers: 2, Seed: opt.Seed + 43,
		},
		Epochs: epochs, Workers: 2, Seed: opt.Seed + 44, Logf: opt.Logf,
	}, parts)
	if err != nil {
		return nil, err
	}
	res.TrainWall = tr.Total
	if len(tr.History) > 0 {
		res.FinalLoss = tr.History[len(tr.History)-1].Loss
	}

	// Phase 4 — GraphInfer precompute, then one store file opened both
	// ways: onto the heap (full read and verify on open) and mmap'd (O(1)
	// open, rows read on demand straight from the page cache).
	opt.logf("oocore: infer embeddings for %d nodes", nodes)
	inf, err := core.Infer(core.InferConfig{
		Seed: opt.Seed + 45, TempDir: tmp, NumReducers: 8, KeepEmbeddings: true,
	}, tr.Model, mapreduce.MemInput(core.TableRecords(ds.G)))
	if err != nil {
		return nil, err
	}
	built, err := serve.NewStore(0, inf.Embeddings)
	if err != nil {
		return nil, err
	}
	res.StoreLen = built.Len()
	storePath := filepath.Join(tmp, "store.agl")
	if err := built.Save(storePath); err != nil {
		return nil, err
	}

	t0 := time.Now()
	ramStore, err := serve.OpenStore(storePath, false)
	if err != nil {
		return nil, err
	}
	res.RAMOpen = time.Since(t0)
	t0 = time.Now()
	mmapStore, err := serve.OpenStore(storePath, true)
	if err != nil {
		return nil, err
	}
	res.MmapOpen = time.Since(t0)
	defer mmapStore.Close()

	// Phase 5 — identical warm-path load tests over the two backends.
	for _, backend := range []struct {
		name  string
		store serve.Store
		out   *ServePhase
	}{
		{"warm (ram store)", ramStore, &res.WarmRAM},
		{"warm (mmap store)", mmapStore, &res.WarmMmap},
	} {
		srv, err := serve.New(serve.Config{Seed: opt.Seed + 46}, tr.Model, ds.G, backend.store)
		if err != nil {
			return nil, err
		}
		opt.logf("oocore: %s phase, %d requests", backend.name, min(requests, len(ids)))
		ph, err := loadPhase(backend.name, srv, uniqueIDs(ids, requests), clients)
		srv.Close()
		if err != nil {
			return nil, err
		}
		*backend.out = ph
	}
	res.PeakRSS = peakRSS()

	rows := [][]string{
		{"ram", fmtLatency(res.RAMOpen), fmt.Sprintf("%d", res.WarmRAM.Requests),
			fmt.Sprintf("%.0f", res.WarmRAM.Throughput), fmtLatency(res.WarmRAM.P50), fmtLatency(res.WarmRAM.P99)},
		{"mmap", fmtLatency(res.MmapOpen), fmt.Sprintf("%d", res.WarmMmap.Requests),
			fmt.Sprintf("%.0f", res.WarmMmap.Throughput), fmtLatency(res.WarmMmap.P50), fmtLatency(res.WarmMmap.P99)},
	}
	regime := "in-core (limit above dataset)"
	if res.OutOfCore {
		regime = "out-of-core (limit below dataset)"
	}
	res.Text = fmt.Sprintf(
		"Out-of-core data tier: %d-node UUG, %d partitions, flattened %.1f MiB, GOMEMLIMIT %.1f MiB — %s\n"+
			"partition-streaming train: %d epochs in %s, final loss %.4f; store: %d embeddings\n%s"+
			"mmap warm p50 is %.2fx the in-RAM p50; open is %.0fx faster; peak RSS %.1f MiB\n",
		res.Nodes, res.Partitions, float64(res.FlatBytes)/(1<<20), float64(res.MemLimit)/(1<<20), regime,
		epochs, res.TrainWall.Round(time.Millisecond), res.FinalLoss, res.StoreLen,
		table([]string{"Backend", "Open", "Requests", "Req/s", "p50", "p99"}, rows),
		float64(res.WarmMmap.P50)/float64(res.WarmRAM.P50),
		float64(res.RAMOpen)/float64(max(res.MmapOpen, 1)),
		float64(res.PeakRSS)/(1<<20))
	return res, nil
}

// dirSize sums the file sizes under dir (non-recursive walk is enough for
// a dfs dataset directory).
func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// peakRSS reads the process resident-set high-water mark from
// /proc/self/status (VmHWM); on platforms without procfs it falls back to
// the Go runtime's OS-claimed bytes.
func peakRSS() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
						return kb * 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
