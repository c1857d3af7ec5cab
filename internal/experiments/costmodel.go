package experiments

import (
	"math/rand"
	"time"
)

// This file is the paper's cost model of the production CPU cluster it
// deploys on (1000+ machines, 32-core/64GB workers): it converts measured
// in-process task accounting into the cluster-level cost units of Table 5
// (CPU core·min, memory GB·min) and extrapolates multi-worker training
// speedup beyond the host's core count for Figure 8.
//
// The speedup model encodes the paper's own explanation of its ~0.8 slope:
// every mini-batch pays a fixed parameter-server pull+push overhead on top
// of its compute, so efficiency is roughly constant at
// compute/(compute+comm), with a mild additional contention term that
// grows with the worker count and perturbs the slope (the "different tasks
// on the same physical machine" noise the paper reports).

// Costs are Table-5 style resource totals.
type Costs struct {
	Wall       time.Duration
	CPUCoreMin float64
	MemGBMin   float64
}

// CPUCoreMin converts summed busy time into core·minutes.
func CPUCoreMin(busy time.Duration) float64 {
	return busy.Minutes()
}

// MemGBMin integrates a resident-set size over a duration into GB·minutes.
func MemGBMin(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e9 * d.Minutes()
}

// SpeedupModel predicts training speedup versus worker count.
type SpeedupModel struct {
	// BatchCompute is the measured pure model-compute time of one
	// mini-batch on one worker.
	BatchCompute time.Duration
	// PullPush is the per-batch parameter-server communication cost
	// (weights down + gradients up). The default used by the experiment
	// harness derives it from the model's parameter byte count and the
	// cluster NIC bandwidth; the paper's setting lands near 25% of batch
	// compute.
	PullPush time.Duration
	// ContentionPerWorker adds PS-side serialization cost that grows
	// linearly with the number of concurrent workers.
	ContentionPerWorker time.Duration
	// Jitter is the relative standard deviation of straggler noise
	// (multiplicative, applied per configuration); 0 disables.
	Jitter float64
	// Seed drives the jitter.
	Seed int64
}

// EpochTime predicts the wall time of one epoch of b batches on n workers.
// The single-worker baseline (n=1) is standalone-style: batches run
// back-to-back with no PS round trips, matching how the paper normalizes
// its speedup curve.
func (m SpeedupModel) EpochTime(batches, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	perWorker := (batches + workers - 1) / workers
	batchCost := m.BatchCompute
	if workers > 1 {
		batchCost += m.PullPush + time.Duration(workers)*m.ContentionPerWorker
	}
	t := time.Duration(perWorker) * batchCost
	if m.Jitter > 0 {
		rng := rand.New(rand.NewSource(m.Seed + int64(workers)))
		f := 1 + m.Jitter*rng.NormFloat64()
		if f < 0.5 {
			f = 0.5
		}
		t = time.Duration(float64(t) * f)
	}
	return t
}

// Speedup predicts T(1)/T(n) for an epoch of b batches.
func (m SpeedupModel) Speedup(batches, workers int) float64 {
	t1 := m.EpochTime(batches, 1)
	tn := m.EpochTime(batches, workers)
	if tn <= 0 {
		return 0
	}
	return float64(t1) / float64(tn)
}

// DerivePullPush estimates per-batch PS communication from the model size
// and effective per-worker bandwidth: a pull of all weights plus a push of
// all gradients.
func DerivePullPush(paramBytes int64, bandwidthBytesPerSec float64, rtt time.Duration) time.Duration {
	if bandwidthBytesPerSec <= 0 {
		return 0
	}
	transfer := time.Duration(float64(2*paramBytes) / bandwidthBytesPerSec * float64(time.Second))
	return transfer + 2*rtt
}
