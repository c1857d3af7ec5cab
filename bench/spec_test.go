package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go and workloads.go")

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []benchmarkMetric   `json:"end_to_end"`
	PerLayer   []benchmarkMetric   `json:"per_layer"`
}

func benchmarkFromSpec() benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchmarkWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{d.name, d.unit, d.better, nil})
	}
	return f
}

// BENCHMARK.json is what the driver reads and spec.go is what the benchmark
// prints; a metric in one and not the other fails every run.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := benchmarkFromSpec()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go and workloads.go; run go test -run TestBenchmarkJSONMatchesSpec -update")
	}
}

// The limits the driver's contract puts on the file.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, the contract allows 200", w.name, len(w.why))
		}
		if (w.offline == nil) == (w.serve == nil) {
			t.Errorf("workload %s must be exactly one of offline and serve", w.name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("unit %q of %s is outside the contract's alphabet or length", d.unit, d.name)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s is better %q", d.name, d.better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", d.bound, d.name)
		}
		if d.name == "setup_s" {
			hasSetup = d.unit == "s" && d.better == "lower"
		}
	}
	if !hasSetup {
		t.Error("the contract requires an end-to-end setup_s in s, lower is better")
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--seed", "3", "--seconds", "12", "--trace", "1"}, []string{"--workload", "x", "--seed", "3", "--seconds", "12", "--trace=1"}},
		{[]string{"--trace", "0", "-seed", "2"}, []string{"--trace=0", "-seed", "2"}},
		{[]string{"-trace", "-out", "d"}, []string{"-trace", "-out", "d"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
	} {
		if got := normalizeTrace(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("normalizeTrace(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
