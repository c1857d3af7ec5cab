package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	return vs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means refused
	}{
		{999, 0.99, 0},    // 9 beyond
		{1000, 0.99, 990}, // exactly 10 beyond
		{199, 0.95, 0},    // 9 beyond
		{200, 0.95, 190},  // exactly 10 beyond
		{19, 0.50, 0},     // a median needs 20 samples
		{20, 0.50, 10},    // exactly 10 beyond
		{100000, 0.99, 99000},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples: got %v, want a refusal", tc.p*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples: got %v, %v; want %v", tc.p*100, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("p100 accepted")
	}
}

func TestTailPercentileFallsBack(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{2000, "p99"}, {500, "p95"}, {150, "p90"}, {50, ""}} {
		_, name, err := tailPercentile(seq(tc.n))
		if name != tc.want || (tc.want == "") != (err != nil) {
			t.Errorf("%d samples: judged on %q (%v), want %q", tc.n, name, err, tc.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 4, 5, 6, 7, 8}, 4, 7},
	} {
		q1, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}
