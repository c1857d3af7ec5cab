// Command bench is the repository's one benchmark. It measures every layer
// of AGL from outside: offline it times calls into the public agl functions,
// online it boots the real cmd/aglserve binary and drives it over loopback
// HTTP. README.md in this directory describes the workloads, the metrics
// and how to read the output.
//
//	bench [-seed N] [-workload name] [-trace] [-out dir]   every workload, each in its own process
//	bench -workload name -seed N -seconds S -trace 0|1     one run, for the driver (see BENCHMARK.json)
//	bench -calibrate N                                     N passes, spreads to bench/calibration.json
//	bench -compare a.json b.json                           the gain rule over two sets of runs
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 14

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the input generators")
	name := fs.String("workload", "", "run only this workload")
	trace := fs.Bool("trace", false, "also run traced and print the per-layer metrics and the ladders")
	seconds := fs.Float64("seconds", 0, "measure for this long and print the driver's result line (needs -workload)")
	out := fs.String("out", "", "directory for result and trace files (default "+buildDir+"/out)")
	calibrate := fs.Int("calibrate", 0, "run this many full passes and write each metric's spread to bench/calibration.json")
	compare := fs.Bool("compare", false, "compare two run-set files: bench -compare parent.json change.json")
	record := fs.String("record", "", "append this invocation's runs to this run-set file (a trajectory point, or an input of -compare)")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(root, buildDir, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *seconds > 0 {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: -seconds needs -workload, one of %v\n", workloadNames())
			return 2
		}
		return runOne(w, &runEnv{root: root, outDir: *out, seed: *seed, seconds: *seconds, traced: *trace})
	}

	names := workloadNames()
	if *name != "" {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q, want one of %v\n", *name, names)
			return 2
		}
		names = []string{*name}
	}
	o := &orchestrator{root: root, outDir: *out, names: names}
	if *calibrate > 0 {
		return o.calibrate(*calibrate, *seed, *record)
	}
	return o.fullPass(*seed, *trace, *record)
}

// normalizeTrace lets -trace be a bare switch (bench -trace) and also take
// its value as the next argument (--trace 0, --trace 1), which is how the
// driver passes it and which the flag package does not allow for booleans.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload in this process and prints the driver's result
// line last. Every child process is reaped on every way out.
func runOne(w *workload, env *runEnv) int {
	tmp, err := os.MkdirTemp(filepath.Join(env.root, buildDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env.tmpDir = tmp
	cleanup := func() {
		reapChildren()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	var res *result
	if w.offline != nil {
		res, err = runOffline(w, env)
	} else {
		res, err = runServe(w, env)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.writeFile(env.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	full := res.full()
	defs := endToEnd
	if env.traced {
		defs = perLayer
	}
	printLines(w.name, full.Metrics, defs)
	fmt.Printf("%s operations attempted=%d ok=%d failed=%d wrong=%d\n", w.name, full.Attempted, full.OK, full.Failed, full.Wrong)
	for _, n := range res.notes {
		fmt.Printf("%s note: %s\n", w.name, n)
	}
	for _, f := range res.failures {
		fmt.Printf("%s FAILED: %s\n", w.name, f)
	}
	line, err := res.contractLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	// A run that measured and printed its line succeeded as a run; whether
	// its checks passed is the line's "correct" field, and the orchestrator
	// turns that into the exit code of a full pass.
	return 0
}

// childCommand builds the command that runs one workload in its own
// process, so peak_rss_mb and cpu_s belong to that workload alone.
func childCommand(root, outDir, workload string, seed int64, traced bool) (*exec.Cmd, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(defaultSeconds), "-trace="+strconv.FormatBool(traced), "-out", outDir)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	return cmd, nil
}
