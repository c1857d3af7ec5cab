// Command graphtrainer is the CLI front end of GraphTrainer (paper Fig 6):
//
//	GraphTrainer -m model_name -i input -t train_strategy -c dist_configs
//
// It streams the GraphFeature records of a graphflat output dataset one
// partition at a time, trains a GNN with parameter-server workers, and saves
// the model.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"agl/internal/core"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/nn"
	"agl/internal/ps"
	"agl/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphtrainer: ")

	modelName := flag.String("m", "gcn", "model: gcn|sage|gat|gin")
	input := flag.String("i", "graphfeatures", "input dataset directory (graphflat output)")
	evalInput := flag.String("eval", "", "optional eval dataset directory (graphflat output)")
	loss := flag.String("loss", "ce", "loss: ce|bce")
	metric := flag.String("metric", "accuracy", "eval metric: accuracy|f1|auc")
	hidden := flag.Int("hidden", 16, "embedding dimension")
	classes := flag.Int("classes", 2, "output classes (1 for binary BCE)")
	layers := flag.Int("layers", 2, "GNN layers K")
	heads := flag.Int("heads", 1, "attention heads (gat)")
	dropout := flag.Float64("dropout", 0.1, "dropout rate")
	batch := flag.Int("batch", 64, "batch size")
	epochs := flag.Int("epochs", 10, "training epochs")
	lr := flag.Float64("lr", 0.01, "Adam learning rate")
	workers := flag.Int("workers", 1, "training workers")
	shards := flag.Int("ps", 1, "parameter-server shards")
	mode := flag.String("mode", "async", "consistency: async|sync")
	strategy := flag.String("t", "pipeline,pruning,partition", "train strategy: comma list of pipeline,pruning,partition")
	edgeHead := flag.String("edge-head", "", "link prediction: pairwise head dot|bilinear|mlp; input must be graphflat -p LinkRecords")
	negRatio := flag.Int("neg-ratio", 0, "negatives sampled per positive pair at batch time (link mode; 0 selects 1)")
	seed := flag.Int64("seed", 1, "seed")
	out := flag.String("o", "model.agl", "output model file")
	flag.Parse()

	link := *edgeHead != ""
	parts := openDataset(*input, link)
	first, err := parts.First()
	if err != nil {
		log.Fatal(err)
	}
	inDim, err := sniffDim(first, link)
	if err != nil {
		log.Fatalf("%s: %v", *input, err)
	}
	log.Printf("input: %d records across %d partitions", parts.Records(), parts.NumPartitions())
	var eval [][]byte
	if *evalInput != "" {
		evalParts := openDataset(*evalInput, link)
		for i := 0; i < evalParts.NumPartitions(); i++ {
			recs, err := evalParts.Load(i)
			if err != nil {
				log.Fatal(err)
			}
			eval = append(eval, recs...)
		}
	}

	cfg := core.TrainConfig{
		Model: gnn.Config{
			Kind: *modelName, InDim: inDim, Hidden: *hidden, Classes: *classes,
			Layers: *layers, Heads: *heads, Act: nn.ActReLU, Dropout: *dropout,
			Seed: *seed, EdgeHead: *edgeHead,
		},
		BatchSize: *batch, Epochs: *epochs, LR: *lr,
		Workers: *workers, PSShards: *shards,
		Eval: eval, Seed: *seed, NegativeRatio: *negRatio,
		Logf: log.Printf,
	}
	switch *loss {
	case "ce":
		cfg.Loss = core.LossCE
	case "bce":
		cfg.Loss = core.LossBCE
	default:
		log.Fatalf("unknown loss %q", *loss)
	}
	switch *metric {
	case "accuracy":
		cfg.EvalMetric = core.MetricAccuracy
	case "f1":
		cfg.EvalMetric = core.MetricMicroF1
	case "auc":
		cfg.EvalMetric = core.MetricAUC
	default:
		log.Fatalf("unknown metric %q", *metric)
	}
	if *mode == "sync" {
		cfg.Mode = ps.Sync
	}
	for _, s := range strings.Split(*strategy, ",") {
		switch strings.TrimSpace(s) {
		case "pipeline":
			cfg.Pipeline = true
		case "pruning":
			cfg.Pruning = true
		case "partition":
			cfg.AggThreads = 8
		case "":
		default:
			log.Fatalf("unknown train strategy %q", s)
		}
	}

	res, err := core.TrainPartitions(cfg, parts)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range res.History {
		line := fmt.Sprintf("epoch %2d  loss %.4f  wall %s  vec %s  compute %s",
			st.Epoch, st.Loss, st.Duration.Round(1e6), st.VecBusy.Round(1e6), st.ComputeBusy.Round(1e6))
		if st.HasMetric {
			line += fmt.Sprintf("  %s %.4f", cfg.EvalMetric, st.Metric)
		}
		fmt.Println(line)
	}
	fmt.Printf("total %s, PS traffic %.2f MB down / %.2f MB up\n",
		res.Total.Round(1e6), float64(res.PSBytesOut)/1e6, float64(res.PSBytesIn)/1e6)

	if err := dfs.WriteFile(*out, res.Model.Save); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved to %s\n", *out)
}

// openDataset opens a graphflat output dataset whose records must be
// LinkRecords exactly when link is set.
func openDataset(path string, link bool) *core.PartitionSet {
	parts, err := core.OpenPartitions(path)
	if err != nil {
		log.Fatal(err)
	}
	if parts.Link() != link {
		log.Fatalf("%s holds link=%v records but -edge-head selects link=%v training",
			path, parts.Link(), link)
	}
	return parts
}

// sniffDim decodes a single record to discover the feature dimension.
func sniffDim(rec []byte, link bool) (int, error) {
	var nodes []wire.SGNode
	if link {
		recs, err := core.DecodeLinkRecords([][]byte{rec})
		if err != nil {
			return 0, fmt.Errorf("not LinkRecords (run graphflat -p for link mode): %w", err)
		}
		nodes = recs[0].SG.Nodes
	} else {
		recs, err := core.DecodeRecords([][]byte{rec})
		if err != nil {
			return 0, err
		}
		nodes = recs[0].SG.Nodes
	}
	dim := 0
	for _, n := range nodes {
		if len(n.Feat) > dim {
			dim = len(n.Feat)
		}
	}
	return dim, nil
}
