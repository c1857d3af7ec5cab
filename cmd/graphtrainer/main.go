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

	cfg := core.TrainConfig{Model: gnn.Config{Act: nn.ActReLU}, Logf: log.Printf}
	flag.StringVar(&cfg.Model.Kind, "m", "gcn", "model: gcn|sage|gat|gin")
	input := flag.String("i", "graphfeatures", "input dataset directory (graphflat output)")
	evalInput := flag.String("eval", "", "optional eval dataset directory (graphflat output)")
	flag.Func("loss", "loss: ce|bce (default ce)", choice(&cfg.Loss,
		map[string]core.LossKind{"ce": core.LossCE, "bce": core.LossBCE}))
	flag.Func("metric", "eval metric: accuracy|f1|auc (default accuracy)", choice(&cfg.EvalMetric,
		map[string]core.MetricKind{"accuracy": core.MetricAccuracy, "f1": core.MetricMicroF1, "auc": core.MetricAUC}))
	flag.IntVar(&cfg.Model.Hidden, "hidden", 16, "embedding dimension")
	flag.IntVar(&cfg.Model.Classes, "classes", 2, "output classes (1 for binary BCE)")
	flag.IntVar(&cfg.Model.Layers, "layers", 2, "GNN layers K")
	flag.IntVar(&cfg.Model.Heads, "heads", 1, "attention heads (gat)")
	flag.Float64Var(&cfg.Model.Dropout, "dropout", 0.1, "dropout rate")
	flag.IntVar(&cfg.BatchSize, "batch", 64, "batch size")
	flag.IntVar(&cfg.Epochs, "epochs", 10, "training epochs")
	flag.Float64Var(&cfg.LR, "lr", 0.01, "Adam learning rate")
	flag.IntVar(&cfg.Workers, "workers", 1, "training workers")
	flag.IntVar(&cfg.PSShards, "ps", 1, "parameter-server shards")
	flag.Func("mode", "consistency: async|sync (default async)", choice(&cfg.Mode,
		map[string]ps.Mode{"async": ps.Async, "sync": ps.Sync}))
	cfg.Pipeline, cfg.Pruning, cfg.AggThreads = true, true, 8
	flag.Func("t", "train strategy: comma list of pipeline,pruning,partition (default all three)", func(list string) error {
		cfg.Pipeline, cfg.Pruning, cfg.AggThreads = false, false, 0
		for _, s := range strings.Split(list, ",") {
			switch strings.TrimSpace(s) {
			case "pipeline":
				cfg.Pipeline = true
			case "pruning":
				cfg.Pruning = true
			case "partition":
				cfg.AggThreads = 8
			case "":
			default:
				return fmt.Errorf("unknown train strategy %q", s)
			}
		}
		return nil
	})
	flag.StringVar(&cfg.Model.EdgeHead, "edge-head", "", "link prediction: pairwise head dot|bilinear|mlp; input must be graphflat -p LinkRecords")
	flag.IntVar(&cfg.NegativeRatio, "neg-ratio", 0, "negatives sampled per positive pair at batch time (link mode; 0 selects 1)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed")
	out := flag.String("o", "model.agl", "output model file")
	flag.Parse()
	cfg.Model.Seed = cfg.Seed

	link := cfg.Model.EdgeHead != ""
	parts := openDataset(*input, link)
	first, err := parts.First()
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Model.InDim, err = sniffDim(first, link); err != nil {
		log.Fatalf("%s: %v", *input, err)
	}
	log.Printf("input: %d records across %d partitions", parts.Records(), parts.NumPartitions())
	if *evalInput != "" {
		evalParts := openDataset(*evalInput, link)
		for i := 0; i < evalParts.NumPartitions(); i++ {
			recs, err := evalParts.Load(i)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Eval = append(cfg.Eval, recs...)
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

// choice returns a flag.Func setter that stores in dst the value s names.
func choice[T any](dst *T, values map[string]T) func(s string) error {
	return func(s string) error {
		v, ok := values[s]
		if !ok {
			return fmt.Errorf("unknown value %q", s)
		}
		*dst = v
		return nil
	}
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
