package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// orchestrator runs workloads, each in a child process of its own.
type orchestrator struct {
	root   string
	outDir string
	names  []string
}

// runChild runs one workload in a child and returns the result it wrote.
func (o *orchestrator) runChild(workload string, seed int64, traced bool) (*resultJSON, error) {
	cmd, err := childCommand(o.root, o.outDir, workload, seed, traced)
	if err != nil {
		return nil, err
	}
	// The child's own lines repeat what the caller prints; keep stderr.
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", workload, err, out)
	}
	b, err := os.ReadFile(filepath.Join(o.outDir, resultFileName(workload, traced)))
	if err != nil {
		return nil, err
	}
	var res resultJSON
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// fingerprint identifies the machine a set of numbers was taken on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fp
}

// runSet is a file of runs: a trajectory point holds one pass, a
// calibration or a -compare input holds several.
type runSet struct {
	Commit      string       `json:"commit,omitempty"`
	Date        string       `json:"date"`
	Seed        int64        `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []resultJSON `json:"runs"`
}

func newRunSet(root string, seed int64) *runSet {
	rs := &runSet{Date: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: defaultSeconds,
		Fingerprint: machineFingerprint()}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // a checkout without git history has no commit to name
		rs.Commit = strings.TrimSpace(string(out))
	}
	return rs
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fullPass runs every selected workload untraced, and traced as well when
// asked, and prints one line per metric. It exits non-zero if any
// correctness or dominance check failed.
func (o *orchestrator) fullPass(seed int64, traced bool, record string) int {
	set := newRunSet(o.root, seed)
	code := 0
	for _, name := range o.names {
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, mode := range modes {
			res, err := o.runChild(name, seed, mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			set.Runs = append(set.Runs, *res)
			if mode {
				printLines(name, res.Metrics, perLayer)
				printLadders(res)
			} else {
				printLines(name, res.Metrics, endToEnd)
				printRungs(res)
			}
			fmt.Printf("%s operations attempted=%d ok=%d failed=%d wrong=%d\n", name, res.Attempted, res.OK, res.Failed, res.Wrong)
			for _, f := range res.Failures {
				fmt.Printf("%s FAILED: %s\n", name, f)
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	if record != "" {
		if err := appendRunSet(record, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func printRungs(res *resultJSON) {
	for _, r := range res.Rungs {
		fmt.Printf("%s rung %.0f/s sent=%d ok=%d p50=%.3fms %s=%.3fms late=%.3fms backlog=%.1f->%.1f %s\n",
			res.Workload, r.RateRPS, r.Sent, r.OK, r.P50Ms, r.Tail, r.TailMs, r.LateMs, r.BacklogMid, r.BacklogEnd, r.Verdict)
	}
}

// ladderRow is one rung of a printed ladder: a label and how to read the
// rung's cost, in the ladder's unit, off a traced result. A side rung hangs
// off the rung above it and the ladder continues from that one.
type ladderRow struct {
	label string
	value reading
	side  bool
}

// reading computes one number from a result's metrics, looked up by name;
// it is missing if a metric it needs is.
type reading func(get func(string) (float64, bool)) (float64, bool)

// sum adds up several readings; it is missing if any of them is.
func sum(parts ...reading) reading {
	return func(get func(string) (float64, bool)) (float64, bool) {
		total := 0.0
		for _, p := range parts {
			v, ok := p(get)
			if !ok {
				return 0, false
			}
			total += v
		}
		return total, true
	}
}

// scaled reads one metric and converts it to the ladder's unit.
func scaled(metric string, scale float64) reading {
	return func(get func(string) (float64, bool)) (float64, bool) {
		v, ok := get(metric)
		return v * scale, ok
	}
}

// printLadders prints the kernel-to-wire ladder and the two offline
// ladders from a traced result: each rung's cost in one unit and its gap
// to the rung below.
func printLadders(res *resultJSON) {
	get := func(name string) (float64, bool) {
		m, ok := res.Metrics[name]
		return m.Value, ok
	}
	ladders := []struct {
		title, unit string
		rows        []ladderRow
	}{
		{"kernel-to-wire", "us", []ladderRow{
			{label: "dot kernel", value: scaled("tensor.dot_ns", 1e-3)},
			{label: "store.lookup", value: scaled("serve.store.lookup_ns.mem", 1e-3)},
			{label: "Server.Score cache hit", value: scaled("serve.cache.hit_ns", 1e-3)},
			{label: "Server.Score warm", value: scaled("serve.score.warm_ns", 1e-3)},
			{label: "Server.Score cold", value: scaled("serve.score.cold_us", 1), side: true},
			{label: "Replica.Score proxied", value: scaled("serve.replica.proxied_ns", 1e-3)},
			{label: "HTTP GET /score round trip", value: scaled("aglserve.http.rtt_us", 1)},
		}},
		{"train", "ms", []ladderRow{
			{label: "matmul", value: scaled("tensor.matmul_us", 1e-3)},
			{label: "gnn step (forward + backward)", value: sum(scaled("gnn.forward_ms", 1), scaled("gnn.backward_ms", 1))},
			{label: "batch (assemble + prepare + step)", value: sum(scaled("core.trainer.assemble_us_per_batch", 1e-3),
				scaled("gnn.prepare_us", 1e-3), scaled("gnn.forward_ms", 1), scaled("gnn.backward_ms", 1))},
			{label: "epoch", value: scaled("core.trainer.epoch_s_median", 1e3)},
			{label: "train_s", value: scaled("train_s", 1e3)},
		}},
		{"flatten", "s", []ladderRow{
			{label: "same bytes through an identity job", value: func(get func(string) (float64, bool)) (float64, bool) {
				mb, ok1 := get("core.flatten.shuffled_mb")
				rate, ok2 := get("mapreduce.identity_mb_per_s")
				return mb / rate, ok1 && ok2 && rate > 0
			}},
			{label: "flatten rounds", value: func(get func(string) (float64, bool)) (float64, bool) {
				flat, ok1 := get("flat_s")
				un, ok2 := get("core.flatten.unattributed_frac")
				return flat * (1 - un), ok1 && ok2
			}},
			{label: "flat_s", value: scaled("flat_s", 1)},
		}},
	}
	for _, l := range ladders {
		var lines []string
		prev, havePrev := 0.0, false
		for _, row := range l.rows {
			v, ok := row.value(get)
			if !ok {
				continue
			}
			gap := ""
			if havePrev {
				gap = fmt.Sprintf("  (%+.4g over the rung above)", v-prev)
			}
			label := row.label
			if row.side {
				label = "  " + label + " (side rung)"
			} else {
				prev, havePrev = v, true
			}
			lines = append(lines, fmt.Sprintf("%s ladder %s: %-40s %12.4g %s%s", res.Workload, l.title, label, v, l.unit, gap))
		}
		// A workload that never enters the ladder's layers has at most a
		// stray rung of it; a ladder needs two.
		if len(lines) >= 2 {
			fmt.Println(strings.Join(lines, "\n"))
		}
	}
}
