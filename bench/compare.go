package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
)

// appendRunSet adds set's runs to the run-set file at path, creating it if
// need be, so parent and change can be measured in alternation: one pass
// into each file, turn and turn about.
func appendRunSet(path string, set *runSet) error {
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return writeJSONFile(path, set)
	case err != nil:
		return err
	}
	var old runSet
	if err := json.Unmarshal(b, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	old.Runs = append(old.Runs, set.Runs...)
	return writeJSONFile(path, &old)
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictGain       verdict = "gain"
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// comparison holds the numbers behind a verdict.
type comparison struct {
	pairs, wins, losses        int
	parentMedian, changeMedian float64
	parentIQR                  float64
	verdict                    verdict
}

// compareCell applies the gain rule of the choosing-metrics guide to the
// paired runs of one metric: the change wins at least nine tenths of the
// pairs (ties count for neither) and the medians differ by more than the
// parent's interquartile range. Short of a gain, the change is worse when
// its median is worse than the parent's by more than bound, unresolved when
// the parent's own spread is wider than bound, and otherwise the same.
func compareCell(parent, change []float64, higherIsBetter bool, bound float64) comparison {
	c := comparison{pairs: min(len(parent), len(change))}
	parent, change = parent[:c.pairs], change[:c.pairs]
	better := func(a, b float64) bool { // a better than b
		if higherIsBetter {
			return a > b
		}
		return a < b
	}
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			c.wins++
		case better(parent[i], change[i]):
			c.losses++
		}
	}
	c.parentMedian, c.changeMedian = median(parent), median(change)
	q1, q3 := quartiles(parent)
	c.parentIQR = q3 - q1
	diff := math.Abs(c.changeMedian - c.parentMedian)
	switch {
	case c.pairs == 0:
		c.verdict = verdictUnresolved
	case better(c.changeMedian, c.parentMedian) && float64(c.wins) >= 0.9*float64(c.pairs) && diff > c.parentIQR:
		c.verdict = verdictGain
	case better(c.parentMedian, c.changeMedian) && diff > bound*math.Abs(c.parentMedian):
		c.verdict = verdictWorse
	case c.parentIQR > bound*math.Abs(c.parentMedian):
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictSame
	}
	return c
}

// compareFiles prints, for every workload, one row per end-to-end metric
// with both medians, the pairs won and the verdict. It exits 1 if any cell
// is worse.
func compareFiles(parentPath, changePath string) int {
	parent, err := readRunSet(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	change, err := readRunSet(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	series := func(set *runSet, workload, metric string) []float64 {
		var vs []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	code := 0
	fmt.Printf("%-14s %-12s %14s %14s %9s %8s  %s\n", "workload", "metric", "parent median", "change median", "change %", "won", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			p, c := series(parent, w.name, d.name), series(change, w.name, d.name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			cmp := compareCell(p, c, d.better == "higher", d.bound)
			if cmp.pairs < 10 {
				cmp.verdict = verdictUnresolved // fewer than the ten pairs the rule needs
			}
			if cmp.verdict == verdictWorse {
				code = 1
			}
			pct := 100 * (cmp.changeMedian/cmp.parentMedian - 1)
			fmt.Printf("%-14s %-12s %14s %14s %+8.1f%% %5d/%-2d  %s\n", w.name, d.name,
				formatValue(cmp.parentMedian), formatValue(cmp.changeMedian), pct, cmp.wins, cmp.pairs, cmp.verdict)
		}
	}
	return code
}
