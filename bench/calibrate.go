package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// cell is one metric on one workload over the calibration's passes.
type cell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median
	Values   []float64 `json:"values"`
}

// calibration is what -calibrate writes: the run-to-run spread of every
// metric an untraced run reports, the evidence behind BENCHMARK.json's
// bounds.
type calibration struct {
	Date        string      `json:"date"`
	Commit      string      `json:"commit,omitempty"`
	Passes      int         `json:"passes"`
	FirstSeed   int64       `json:"first_seed"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	// Bounds is max(5%, 2 x the widest spread over the workloads) for each
	// end-to-end metric: the rule BENCHMARK.json's bounds follow.
	Bounds map[string]float64 `json:"bounds"`
	Cells  []cell             `json:"cells"`
}

// calibrate runs n full untraced passes, pass i with seed first+i, and
// writes each metric's median, quartiles and spread to
// bench/calibration.json.
func (o *orchestrator) calibrate(n int, first int64, record string) int {
	set := newRunSet(o.root, first)
	values := map[[2]string][]float64{}
	for i := 0; i < n; i++ {
		for _, name := range o.names {
			res, err := o.runChild(name, first+int64(i), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed its checks: %v\n", name, first+int64(i), res.Failures)
				return 1
			}
			set.Runs = append(set.Runs, *res)
			for metric, m := range res.Metrics {
				key := [2]string{name, metric}
				values[key] = append(values[key], m.Value)
			}
			fmt.Printf("pass %d/%d %s p50_ms=%s ops_per_s=%s\n", i+1, n, name,
				formatValue(res.Metrics["p50_ms"].Value), formatValue(res.Metrics["ops_per_s"].Value))
		}
	}
	cal := calibration{Date: set.Date, Commit: set.Commit, Passes: n, FirstSeed: first, Seconds: defaultSeconds,
		Fingerprint: set.Fingerprint, Bounds: map[string]float64{}}
	for _, name := range o.names {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				vs, ok := values[[2]string{name, d.name}]
				if !ok {
					continue
				}
				q1, q3 := quartiles(vs)
				cal.Cells = append(cal.Cells, cell{Workload: name, Metric: d.name, Unit: d.unit,
					Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs), Values: vs})
			}
		}
	}
	for _, d := range endToEnd {
		widest := 0.0
		for _, c := range cal.Cells {
			if c.Metric == d.name {
				widest = math.Max(widest, c.Spread)
			}
		}
		cal.Bounds[d.name] = math.Max(0.05, 2*widest)
	}
	fmt.Printf("\n%-14s %-14s %12s %8s\n", "workload", "metric", "median", "spread")
	for _, c := range cal.Cells {
		fmt.Printf("%-14s %-14s %12s %7.1f%%\n", c.Workload, c.Metric, formatValue(c.Median), 100*c.Spread)
	}
	if err := writeJSONFile(filepath.Join(o.root, "bench", "calibration.json"), cal); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if record != "" {
		if err := appendRunSet(record, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}
