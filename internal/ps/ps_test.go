package ps

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"agl/internal/nn"
	"agl/internal/tensor"
)

func makeParams(t *testing.T, names ...string) *nn.ParamSet {
	t.Helper()
	s := nn.NewParamSet()
	rng := rand.New(rand.NewSource(1))
	for _, n := range names {
		s.Add(nn.GlorotParam(n, 3, 2, rng))
	}
	return s
}

func TestShardPullReturnsCopies(t *testing.T) {
	params := makeParams(t, "w")
	shard := NewShard(params.List(), nn.NewSGD(0.1), Async)
	vals, err := shard.Pull([]string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	vals["w"].Fill(123)
	vals2, _ := shard.Pull([]string{"w"})
	if vals2["w"].At(0, 0) == 123 {
		t.Fatal("Pull leaked internal storage")
	}
}

func TestShardUnknownParam(t *testing.T) {
	shard := NewShard(nil, nn.NewSGD(0.1), Async)
	if _, err := shard.Pull([]string{"nope"}); err == nil {
		t.Fatal("expected unknown-parameter error")
	}
	g := map[string]*tensor.Matrix{"nope": tensor.New(1, 1)}
	if err := shard.Push(g); err == nil {
		t.Fatal("expected push error")
	}
}

func TestAsyncPushAppliesImmediately(t *testing.T) {
	params := makeParams(t, "w")
	w0 := params.Get("w").W.Clone()
	shard := NewShard(params.List(), nn.NewSGD(0.5), Async)
	grad := tensor.New(3, 2)
	grad.Fill(1)
	if err := shard.Push(map[string]*tensor.Matrix{"w": grad}); err != nil {
		t.Fatal(err)
	}
	vals, _ := shard.Pull([]string{"w"})
	diff := tensor.New(3, 2)
	tensor.Sub(diff, w0, vals["w"])
	for _, v := range diff.Data {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("async step wrong: %v", v)
		}
	}
	if shard.Version() != 1 {
		t.Fatalf("version=%d", shard.Version())
	}
}

func TestSyncBarrierAveragesGradients(t *testing.T) {
	params := makeParams(t, "w")
	w0 := params.Get("w").W.Clone()
	shard := NewShard(params.List(), nn.NewSGD(1.0), Sync)
	shard.Register()
	shard.Register()

	g1 := tensor.New(3, 2)
	g1.Fill(1)
	g2 := tensor.New(3, 2)
	g2.Fill(3)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); shard.Push(map[string]*tensor.Matrix{"w": g1}) }()
	go func() { defer wg.Done(); shard.Push(map[string]*tensor.Matrix{"w": g2}) }()
	wg.Wait()

	// Average gradient = 2, lr = 1 -> w decreases by exactly 2.
	vals, _ := shard.Pull([]string{"w"})
	diff := tensor.New(3, 2)
	tensor.Sub(diff, w0, vals["w"])
	for _, v := range diff.Data {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("sync averaging wrong: %v", v)
		}
	}
	if shard.Version() != 1 {
		t.Fatalf("two pushes produced %d steps, want 1", shard.Version())
	}
}

func TestSyncPushBlocksUntilAllArrive(t *testing.T) {
	params := makeParams(t, "w")
	shard := NewShard(params.List(), nn.NewSGD(1.0), Sync)
	shard.Register()
	shard.Register()
	g := tensor.New(3, 2)
	g.Fill(1)
	done := make(chan struct{})
	go func() {
		shard.Push(map[string]*tensor.Matrix{"w": g})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push returned before second worker arrived")
	case <-time.After(50 * time.Millisecond):
	}
	// Second worker releases the barrier.
	if err := shard.Push(map[string]*tensor.Matrix{"w": g}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("barrier never released")
	}
}

func TestDeregisterReleasesBarrier(t *testing.T) {
	params := makeParams(t, "w")
	shard := NewShard(params.List(), nn.NewSGD(1.0), Sync)
	shard.Register()
	shard.Register()
	g := tensor.New(3, 2)
	g.Fill(1)
	done := make(chan struct{})
	go func() {
		shard.Push(map[string]*tensor.Matrix{"w": g})
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	shard.Deregister() // the other worker leaves instead of pushing
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("deregister did not release the barrier")
	}
	if shard.Version() != 1 {
		t.Fatalf("version=%d", shard.Version())
	}
}

func TestClusterShardsAllParams(t *testing.T) {
	params := makeParams(t, "a", "b", "c", "d", "e")
	c := NewCluster(3, params, func() nn.Optimizer { return nn.NewSGD(0.1) }, Async)
	total := 0
	for i := 0; i < c.NumShards(); i++ {
		total += len(c.Shard(i).Names())
	}
	if total != 5 {
		t.Fatalf("sharded %d params, want 5", total)
	}
}

func TestClusterPullPushRoundTrip(t *testing.T) {
	params := makeParams(t, "a", "b", "c")
	c := NewCluster(2, params, func() nn.Optimizer { return nn.NewSGD(0.5) }, Async)
	worker := makeParams(t, "a", "b", "c")
	client := c.Client()
	if err := client.PullInto(worker); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !tensor.Equalish(worker.Get(name).W, params.Get(name).W, 0) {
			t.Fatalf("pull mismatch for %s", name)
		}
	}
	for _, p := range worker.List() {
		p.Grad.Fill(1)
	}
	if err := client.PushGrads(worker); err != nil {
		t.Fatal(err)
	}
	after := makeParams(t, "a", "b", "c")
	if err := client.PullInto(after); err != nil {
		t.Fatal(err)
	}
	diff := tensor.New(3, 2)
	tensor.Sub(diff, worker.Get("a").W, after.Get("a").W)
	for _, v := range diff.Data {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("push not applied: %v", v)
		}
	}
}

func TestClusterSnapshot(t *testing.T) {
	params := makeParams(t, "a", "b")
	c := NewCluster(2, params, func() nn.Optimizer { return nn.NewSGD(0.1) }, Async)
	dst := makeParams(t, "a", "b")
	dst.Get("a").W.Fill(0)
	c.Snapshot(dst)
	if !tensor.Equalish(dst.Get("a").W, params.Get("a").W, 0) {
		t.Fatal("snapshot mismatch")
	}
}

// Distributed linear regression: N async workers minimize ||Xw - y||².
func TestDistributedConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 5
	trueW := tensor.New(dim, 1)
	trueW.RandFill(rng, 1)
	nSamples := 200
	X := tensor.New(nSamples, dim)
	X.RandFill(rng, 1)
	y := tensor.New(nSamples, 1)
	tensor.MatMul(y, X, trueW)

	global := nn.NewParamSet(nn.NewParam("w", dim, 1))
	c := NewCluster(1, global, func() nn.Optimizer { return nn.NewAdam(0.02) }, Async)

	var wg sync.WaitGroup
	workers := 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := nn.NewParamSet(nn.NewParam("w", dim, 1))
			client := c.Client()
			client.Register()
			defer client.Deregister()
			lo := w * nSamples / workers
			hi := (w + 1) * nSamples / workers
			// Enough steps to reach async Adam's steady state; scheduling
			// (markedly different under -race) shifts how fast, so keep a
			// healthy margin over the typical requirement.
			for step := 0; step < 900; step++ {
				if err := client.PullInto(local); err != nil {
					t.Error(err)
					return
				}
				// grad = 2 Xᵀ(Xw - y) over this worker's slice.
				grad := tensor.New(dim, 1)
				for i := lo; i < hi; i++ {
					xr := X.Row(i)
					var pred float64
					for j, v := range xr {
						pred += v * local.Get("w").W.Data[j]
					}
					resid := pred - y.Data[i]
					for j, v := range xr {
						grad.Data[j] += 2 * resid * v / float64(hi-lo)
					}
				}
				local.Get("w").Grad.CopyFrom(grad)
				if err := client.PushGrads(local); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	final := nn.NewParamSet(nn.NewParam("w", dim, 1))
	c.Snapshot(final)
	// The bound reflects async Adam's steady-state wander at a fixed LR,
	// not a convergence-rate artifact: gradient staleness makes the
	// iterate orbit the optimum no matter how many extra steps run
	// (weights start at 0, |w*| <= 1, so 0.12 still certifies an
	// order-of-magnitude contraction). At LR 0.05 the orbit occasionally
	// crossed 0.05-0.14 depending on scheduling, which made tighter
	// bounds a scheduler-dependent coin flip under -race; LR 0.02 keeps
	// the orbit well inside this bound.
	if d := tensor.MaxAbsDiff(final.Get("w").W, trueW); d > 0.12 {
		t.Fatalf("did not converge: max diff %v", d)
	}
}
