package experiments

import (
	"fmt"
	"time"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/nn"
)

// Table5Result compares GraphInfer with the original GraphFeature-based
// inference over the whole UUG-like graph.
type Table5Result struct {
	OriginalFlat    Costs
	OriginalForward Costs
	OriginalTotal   Costs
	GraphInfer      Costs
	SpeedupTime     float64
	SpeedupCPU      float64
	Text            string
}

func (r *Table5Result) String() string { return r.Text }

// Table5 trains nothing new — the comparison is pure inference cost: a
// 2-layer GAT producing 8-dimensional embeddings (the paper's setting)
// scores every node, once via the original module (GraphFlat over all
// nodes + per-GraphFeature forward propagation) and once via GraphInfer.
func Table5(opt Options) (*Table5Result, error) {
	uug, err := datagen.UUG(opt.uugInferCfg())
	if err != nil {
		return nil, err
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGAT, InDim: uug.G.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Heads: 1, Act: nn.ActTanh, Seed: opt.Seed + 29,
	})
	if err != nil {
		return nil, err
	}
	tables := mapreduce.MemInput(core.TableRecords(uug.G))
	maxNeighbors := 20

	opt.logf("table5: original inference over %d nodes", uug.G.NumNodes())
	orig, err := core.OriginalInfer(core.FlatConfig{
		Hops: 2, MaxNeighbors: maxNeighbors, Seed: opt.Seed + 31,
		HubThreshold: 500, TempDir: opt.TempDir,
	}, model, tables, uug.G.IDs())
	if err != nil {
		return nil, err
	}
	opt.logf("table5: GraphInfer over %d nodes", uug.G.NumNodes())
	fast, err := core.Infer(core.InferConfig{
		MaxNeighbors: maxNeighbors, Seed: opt.Seed + 31,
		HubThreshold: 500, TempDir: opt.TempDir,
	}, model, tables)
	if err != nil {
		return nil, err
	}
	// The table compares the cost of equal work: both modules keep the same
	// sampled in-edges for every node and vectorize them through one batch
	// builder, so they must score every node bit for bit alike.
	if len(orig.Scores) != len(fast.Scores) {
		return nil, fmt.Errorf("table5: original inference scored %d nodes, GraphInfer %d", len(orig.Scores), len(fast.Scores))
	}
	for id, want := range fast.Scores {
		got, ok := orig.Scores[id]
		if !ok || len(got) != len(want) {
			return nil, fmt.Errorf("table5: node %d: original inference has no comparable score", id)
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("table5: node %d: original %v, GraphInfer %v — the two modules computed different scores", id, got, want)
			}
		}
	}

	res := &Table5Result{}
	// Cost folding: CPU = summed task busy time; memory integral uses each
	// round's shuffle volume as its resident working set over the round's
	// wall time (see DESIGN.md, cluster cost model).
	var flatBusy time.Duration
	var flatMem float64
	var flatBytes int64
	for _, s := range orig.FlatStats {
		flatBusy += s.MapBusy + s.ReduceBusy
		flatMem += MemGBMin(s.BytesShuffled, s.Wall)
		flatBytes += s.BytesShuffled
	}
	res.OriginalFlat = Costs{Wall: orig.FlatWall, CPUCoreMin: CPUCoreMin(flatBusy), MemGBMin: flatMem}
	// The forward phase holds every GraphFeature resident; the final
	// round's shuffle volume bounds the record store size.
	featureBytes := flatBytes
	res.OriginalForward = Costs{
		Wall:       orig.ForwardWall,
		CPUCoreMin: CPUCoreMin(orig.ForwardBusy),
		MemGBMin:   MemGBMin(featureBytes, orig.ForwardWall),
	}
	res.OriginalTotal = Costs{
		Wall:       res.OriginalFlat.Wall + res.OriginalForward.Wall,
		CPUCoreMin: res.OriginalFlat.CPUCoreMin + res.OriginalForward.CPUCoreMin,
		MemGBMin:   res.OriginalFlat.MemGBMin + res.OriginalForward.MemGBMin,
	}
	var fastBusy time.Duration
	var fastMem float64
	for _, s := range fast.RoundStats {
		fastBusy += s.MapBusy + s.ReduceBusy
		fastMem += MemGBMin(s.BytesShuffled, s.Wall)
	}
	res.GraphInfer = Costs{Wall: fast.Wall, CPUCoreMin: CPUCoreMin(fastBusy), MemGBMin: fastMem}
	if res.GraphInfer.Wall > 0 {
		res.SpeedupTime = float64(res.OriginalTotal.Wall) / float64(res.GraphInfer.Wall)
	}
	if res.GraphInfer.CPUCoreMin > 0 {
		res.SpeedupCPU = res.OriginalTotal.CPUCoreMin / res.GraphInfer.CPUCoreMin
	}

	fmtRow := func(name string, c Costs) []string {
		return []string{name, fmt.Sprintf("%.2fs", c.Wall.Seconds()),
			fmt.Sprintf("%.4f", c.CPUCoreMin), fmt.Sprintf("%.6f", c.MemGBMin)}
	}
	rows := [][]string{
		fmtRow("Original/GraphFlat", res.OriginalFlat),
		fmtRow("Original/Forward", res.OriginalForward),
		fmtRow("Original/Total", res.OriginalTotal),
		fmtRow("GraphInfer/Total", res.GraphInfer),
		{"paper Original/Total", fmt.Sprintf("%.0fs", paperT5OriginalTimeS),
			fmt.Sprintf("%.0f", paperT5OriginalCoreMin), fmt.Sprintf("%.0f", paperT5OriginalGBMin)},
		{"paper GraphInfer/Total", fmt.Sprintf("%.0fs", paperT5InferTimeS),
			fmt.Sprintf("%.0f", paperT5InferCoreMin), fmt.Sprintf("%.0f", paperT5InferGBMin)},
	}
	res.Text = fmt.Sprintf(
		"Table 5: inference efficiency on UUG-like graph (%d nodes)\n%s"+
			"speedup: %.2fx time (paper 4.1x), %.2fx CPU (paper 2.0x)\n",
		uug.G.NumNodes(),
		table([]string{"Method/Phase", "Time", "CPU core*min", "Mem GB*min"}, rows),
		res.SpeedupTime, res.SpeedupCPU)
	return res, nil
}
