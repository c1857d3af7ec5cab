// Package experiments regenerates every table and figure of the AGL
// paper's evaluation section (§4), and nothing else: how fast the system
// runs is measured on the wire by bench/. Each experiment has one entry
// point returning a printable result; cmd/aglbench and the repository's
// bench_test.go both drive these. Paper-reported values are kept alongside
// (paperref.go) so the output juxtaposes paper vs measured.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"agl/internal/datagen"
)

// Options sizes the experiments.
type Options struct {
	// Quick shrinks datasets and epochs for CI-scale runs; the full setting
	// targets minutes on a laptop-class machine.
	Quick bool
	// Seed makes the whole run deterministic.
	Seed int64
	// TempDir hosts MapReduce spills (default os.TempDir()).
	TempDir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Dataset presets. The paper's absolute scales (UUG: 6.23e9 nodes) are
// hardware-gated; these presets keep the published shape (feature dims,
// class structure, degree skew, split ratios) at laptop scale.

func (o Options) coraCfg() datagen.CoraConfig {
	if o.Quick {
		return datagen.CoraConfig{Nodes: 240, Edges: 700, FeatDim: 48, Classes: 4, Seed: o.Seed + 1}
	}
	return datagen.CoraConfig{Seed: o.Seed + 1} // published shape: 2708/5429/1433/7
}

func (o Options) ppiCfg() datagen.PPIConfig {
	if o.Quick {
		return datagen.PPIConfig{Scale: 0.015, Seed: o.Seed + 2}
	}
	return datagen.PPIConfig{Scale: 0.08, Seed: o.Seed + 2}
}

// uugCfg deliberately weakens the feature signal (high noise, moderate
// homophily) so training genuinely needs the graph structure and the
// Figure-7 convergence curves climb over several epochs instead of
// saturating immediately.
func (o Options) uugCfg() datagen.UUGConfig {
	if o.Quick {
		return datagen.UUGConfig{Nodes: 700, FeatDim: 16, FeatureNoise: 3, Homophily: 0.75, Seed: o.Seed + 3}
	}
	return datagen.UUGConfig{Nodes: 8000, FeatDim: 64, FeatureNoise: 3, Homophily: 0.75, Seed: o.Seed + 3}
}

// uugInferCfg sizes the Table-5 inference graph. The recomputation waste
// GraphInfer eliminates only dominates fixed per-round MapReduce overhead
// once neighborhoods overlap substantially, so this preset is larger than
// the training one even in quick mode.
func (o Options) uugInferCfg() datagen.UUGConfig {
	if o.Quick {
		return datagen.UUGConfig{Nodes: 4000, FeatDim: 16, Seed: o.Seed + 3}
	}
	return datagen.UUGConfig{Nodes: 12000, FeatDim: 64, Seed: o.Seed + 3}
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(sep, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// AllExperiments lists every experiment name in canonical run order —
// what "-exp all" expands to in cmd/aglbench.
var AllExperiments = []string{
	"table1", "table2", "table3", "table4", "table5", "fig7", "fig8",
}
