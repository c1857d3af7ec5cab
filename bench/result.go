package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
)

// runEnv is what one workload run is given.
type runEnv struct {
	root    string // the checkout
	tmpDir  string // scratch space inside the checkout, removed afterwards
	outDir  string // where result and trace files go
	seed    int64
	seconds float64
	traced  bool
}

// rung is one row of a serve workload's rate ladder.
type rung struct {
	RateRPS    float64 `json:"rate_rps"`
	Sent       int     `json:"sent"`
	OK         int     `json:"ok"`
	Failed     int     `json:"failed"`
	Wrong      int     `json:"wrong"`
	P50Ms      float64 `json:"p50_ms"`
	TailMs     float64 `json:"tail_ms"` // the highest of p99, p95, p90 the rung's sample supports
	Tail       string  `json:"tail"`
	LateMs     float64 `json:"late_ms"` // the same percentile of generator lateness
	BacklogMid float64 `json:"backlog_mid"`
	BacklogEnd float64 `json:"backlog_end"`
	Verdict    string  `json:"verdict"` // "meets", "void: ..." or the limit it missed
}

// result is everything one run of one workload produced.
type result struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	values   metrics

	attempted, failed, wrong int64
	failures                 []string // correctness and dominance checks that failed
	notes                    []string
	rungs                    []rung

	// Carried from the stats pass to the ladder arithmetic.
	flatRoundWallS, flatShuffledMB    float64
	trainStartupS, trainBusyPerEpochS float64
}

func newResult(workload string, env *runEnv) *result {
	return &result{workload: workload, seed: env.seed, seconds: env.seconds, traced: env.traced, values: metrics{}}
}

// set records a metric; a name spec.go does not list is a bug in the caller.
func (r *result) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("metric not in spec.go: " + name)
	}
	r.values[name] = v
}

func (r *result) get(name string) float64 { return r.values[name] }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 && r.failed == 0 && r.wrong == 0 }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the full record of a run: what the trajectory, the
// calibration and -compare read.
type resultJSON struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	OK        int64                 `json:"ok"`
	Failed    int64                 `json:"failed"`
	Wrong     int64                 `json:"wrong"`
	Metrics   map[string]metricJSON `json:"metrics"`
	Rungs     []rung                `json:"rungs,omitempty"`
	Failures  []string              `json:"failures,omitempty"`
	Notes     []string              `json:"notes,omitempty"`
}

func (r *result) full() resultJSON {
	out := resultJSON{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Traced: r.traced,
		Correct: r.correct(), Attempted: r.attempted, OK: r.attempted - r.failed - r.wrong,
		Failed: r.failed, Wrong: r.wrong, Metrics: map[string]metricJSON{},
		Rungs: r.rungs, Failures: r.failures, Notes: r.notes}
	for name, v := range r.values {
		out.Metrics[name] = metricJSON{v, unitOf(name)}
	}
	return out
}

func (r *result) writeFile(dir string) error {
	return writeJSONFile(filepath.Join(dir, resultFileName(r.workload, r.traced)), r.full())
}

func resultFileName(workload string, traced bool) string {
	if traced {
		return "result-" + workload + "-traced.json"
	}
	return "result-" + workload + ".json"
}

// printLines prints one "workload metric value unit" line per metric in
// defs, n/a for a metric the workload has no phase for.
func printLines(workload string, vals map[string]metricJSON, defs []metricDef) {
	for _, d := range defs {
		if m, ok := vals[d.name]; ok {
			fmt.Printf("%s %s %s %s\n", workload, d.name, formatValue(m.Value), d.unit)
		} else {
			fmt.Printf("%s %s n/a %s\n", workload, d.name, d.unit)
		}
	}
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%.6g", v)
	if strings.Contains(s, "e") {
		s = fmt.Sprintf("%.4f", v)
	}
	return s
}

// contractLine is the driver's result line: exactly correct, attempted,
// failed and metrics, the metrics being every end-to-end metric untraced and
// every per-layer metric traced. A per-layer metric this workload has no
// phase for reads 0.
func (r *result) contractLine() ([]byte, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	ms := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.workload, d.name)
		}
		ms[d.name] = metricJSON{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct(), r.attempted, r.failed + r.wrong, ms})
}
