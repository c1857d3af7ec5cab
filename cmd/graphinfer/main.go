// Command graphinfer is the CLI front end of GraphInfer (paper Figure 6):
//
//	GraphInfer -m model -i input -c infer_configs
//
// It loads a trained model, segments it into K+1 slices, runs the
// MapReduce inference pipeline over the node/edge tables, and writes
// per-node predicted scores as TSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"agl/internal/core"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphinfer: ")

	var cfg core.InferConfig
	modelPath := flag.String("m", "model.agl", "trained model file")
	nodePath := flag.String("n", "", "node table TSV")
	edgePath := flag.String("e", "", "edge table TSV")
	flatPath := flag.String("flat", "", "graphflat output dataset to score one partition at a time (bounded memory); replaces -n/-e")
	batch := flag.Int("batch", 256, "scoring batch size (-flat mode)")
	flag.Func("s", "sampling strategy (match training; default uniform)", func(s string) (err error) {
		cfg.Strategy, err = sampling.Parse(s)
		return err
	})
	flag.IntVar(&cfg.MaxNeighbors, "max-neighbors", 0, "per-node in-edge cap (match training)")
	flag.IntVar(&cfg.HubThreshold, "hub-threshold", 0, "re-indexing threshold: shuffle layout only (0 = disabled)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "sampling seed (match training)")
	flag.IntVar(&cfg.NumReducers, "reducers", 8, "reduce partitions")
	out := flag.String("o", "scores.tsv", "output scores TSV (id<TAB>score...)")
	flag.Parse()

	if *flatPath == "" && (*nodePath == "" || *edgePath == "") {
		flag.Usage()
		os.Exit(2)
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	model, err := gnn.Load(mf)
	mf.Close()
	if err != nil {
		log.Fatal(err)
	}
	if *flatPath != "" {
		scorePartitioned(model, *flatPath, *batch, *out)
		return
	}
	g, err := graph.LoadTables(*nodePath, *edgePath)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Infer(cfg, model, mapreduce.MemInput(core.TableRecords(g)))
	if err != nil {
		log.Fatal(err)
	}

	ids := make([]int64, 0, len(res.Scores))
	for id := range res.Scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	err = dfs.WriteFile(*out, func(w io.Writer) error {
		for _, id := range ids {
			if err := writeScores(w, id, res.Scores[id]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scored %d nodes in %s (%d MR rounds, %.2f MB shuffled) -> %s\n",
		len(res.Scores), res.Wall.Round(1e6), len(res.RoundStats),
		float64(res.TotalShuffledBytes())/1e6, *out)
}

// scorePartitioned streams a graphflat output dataset through the model
// one partition at a time, writing scores as they come. Peak memory
// is one partition plus the inference workspace, not the dataset.
func scorePartitioned(model *gnn.Model, flatPath string, batch int, out string) {
	parts, err := core.OpenPartitions(flatPath)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	scored := 0
	err = dfs.WriteFile(out, func(w io.Writer) error {
		return core.ScorePartitions(model, parts, batch, gnn.RunOptions{},
			func(part int, ids []int64, scores [][]float64) error {
				for i, id := range ids {
					if err := writeScores(w, id, scores[i]); err != nil {
						return err
					}
				}
				scored += len(ids)
				return nil
			})
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scored %d nodes in %s from %d partitions -> %s\n",
		scored, time.Since(start).Round(1e6), parts.NumPartitions(), out)
}

// writeScores writes one output line: the id, a tab, and its scores
// joined by commas.
func writeScores(w io.Writer, id int64, scores []float64) error {
	cols := make([]string, 0, len(scores))
	for _, s := range scores {
		cols = append(cols, strconv.FormatFloat(s, 'g', 8, 64))
	}
	_, err := fmt.Fprintf(w, "%d\t%s\n", id, strings.Join(cols, ","))
	return err
}
