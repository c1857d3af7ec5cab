package main

import "testing"

func TestCompareCellGainRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"clear gain on a lower-is-better metric", shift(-10), false, 0.05, verdictGain},
		{"a gain smaller than the parent's own spread is not one", shift(-1), false, 0.05, verdictSame},
		{"worse by more than the bound", shift(+10), false, 0.05, verdictWorse},
		{"worse within the bound", shift(+3), false, 0.05, verdictSame},
		{"the same shift is a loss when higher is better", shift(-10), true, 0.05, verdictWorse},
		{"and a gain the other way", shift(+10), true, 0.05, verdictGain},
		// Eight wins of ten is short of nine tenths, however large the wins.
		{"too few pairs won", []float64{50, 50, 50, 50, 50, 50, 50, 50, 103, 103}, false, 0.05, verdictSame},
	} {
		if got := compareCell(parent, tc.change, tc.higher, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// A parent noisier than the bound cannot show "same".
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	if got := compareCell(noisy, noisy, false, 0.05).verdict; got != verdictUnresolved {
		t.Errorf("a parent with a 30%% spread under a 5%% bound: verdict %s, want unresolved", got)
	}
	// Ties count for neither side.
	c := compareCell(parent, parent, false, 0.05)
	if c.wins != 0 || c.losses != 0 || c.verdict != verdictSame {
		t.Errorf("identical runs: %+v", c)
	}
}
