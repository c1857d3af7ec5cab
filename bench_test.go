package agl_test

import (
	"testing"

	"agl/internal/experiments"
)

// Benchmarks regenerating the paper's evaluation — one per table/figure.
// They run the experiment harness in quick mode so `go test -bench=.`
// stays tractable; `cmd/aglbench` (without -quick) runs the full scale.
// Reported ns/op is the end-to-end time of regenerating the experiment.

func benchOpts(b *testing.B) experiments.Options {
	b.Helper()
	return experiments.Options{Quick: true, Seed: 1, TempDir: b.TempDir()}
}

// BenchmarkTable2DatasetStats regenerates the dataset summary (paper
// Table 2): three synthetic datasets with the published shapes.
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Effectiveness regenerates the effectiveness grid (paper
// Table 3): GCN/GraphSAGE/GAT on Cora/PPI/UUG, AGL vs full-graph baseline.
func BenchmarkTable3Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchOpts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4TrainingEfficiency regenerates the training-efficiency
// grid (paper Table 4): time per epoch on PPI for 3 models × 3 depths ×
// 4 optimization configs plus the full-graph stand-in.
func BenchmarkTable4TrainingEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchOpts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Inference regenerates the inference-efficiency comparison
// (paper Table 5): GraphInfer vs the original GraphFeature-based module on
// the UUG-like graph.
func BenchmarkTable5Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupTime, "time-speedup-x")
		b.ReportMetric(res.SpeedupCPU, "cpu-speedup-x")
	}
}

// BenchmarkFig7Convergence regenerates the convergence study (paper
// Figure 7): AUC vs epoch for increasing worker counts, async PS.
func BenchmarkFig7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Curves[len(res.Curves)-1]
		b.ReportMetric(last.AUC[len(last.AUC)-1], "final-AUC")
	}
}

// BenchmarkFig8Speedup regenerates the speedup study (paper Figure 8):
// measured multi-worker runs plus cluster-model extrapolation to 100
// workers (paper slope ≈ 0.8).
func BenchmarkFig8Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slope, "slope-at-100")
	}
}
