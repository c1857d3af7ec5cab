package experiments

import (
	"math"
	"testing"
	"time"
)

func TestCostConversions(t *testing.T) {
	if CPUCoreMin(2*time.Minute) != 2 {
		t.Fatal("CPUCoreMin")
	}
	if got := MemGBMin(2e9, time.Minute); math.Abs(got-2) > 1e-9 {
		t.Fatalf("MemGBMin=%v", got)
	}
}

func TestSpeedupMonotonicAndSubLinear(t *testing.T) {
	m := SpeedupModel{
		BatchCompute:        10 * time.Millisecond,
		PullPush:            2500 * time.Microsecond,
		ContentionPerWorker: 5 * time.Microsecond,
	}
	batches := 10000
	prev := 0.0
	for _, n := range []int{1, 2, 5, 10, 50, 100} {
		s := m.Speedup(batches, n)
		if s < prev {
			t.Fatalf("speedup not monotone at %d workers: %v < %v", n, s, prev)
		}
		if float64(n) > 1 && s >= float64(n) {
			t.Fatalf("superlinear speedup at %d workers: %v", n, s)
		}
		prev = s
	}
}

func TestSpeedupSlopeNearPaper(t *testing.T) {
	// With PS cost = 25% of batch compute, the efficiency plateau sits at
	// ~0.8 — the paper's slope.
	m := SpeedupModel{
		BatchCompute:        10 * time.Millisecond,
		PullPush:            2500 * time.Microsecond,
		ContentionPerWorker: 2 * time.Microsecond,
	}
	s := m.Speedup(100000, 100)
	slope := s / 100
	if slope < 0.7 || slope > 0.9 {
		t.Fatalf("slope %v outside [0.7, 0.9]", slope)
	}
}

func TestSingleWorkerBaselineHasNoComm(t *testing.T) {
	m := SpeedupModel{BatchCompute: time.Millisecond, PullPush: time.Millisecond}
	if got := m.EpochTime(100, 1); got != 100*time.Millisecond {
		t.Fatalf("T(1)=%v want 100ms", got)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	m := SpeedupModel{BatchCompute: time.Millisecond, Jitter: 0.1, Seed: 7}
	a := m.EpochTime(100, 4)
	b := m.EpochTime(100, 4)
	if a != b {
		t.Fatal("jitter not deterministic")
	}
	m2 := m
	m2.Seed = 8
	if m2.EpochTime(100, 4) == a {
		t.Log("warning: identical jitter across seeds (unlikely)")
	}
}

func TestDerivePullPush(t *testing.T) {
	// 1 MB both ways at 100 MB/s = 20 ms + 2 rtt.
	got := DerivePullPush(1e6, 100e6, time.Millisecond)
	want := 22 * time.Millisecond
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("DerivePullPush=%v want ~%v", got, want)
	}
	if DerivePullPush(1e6, 0, 0) != 0 {
		t.Fatal("zero bandwidth should be 0")
	}
}
