// Command aglbench regenerates the paper's evaluation tables and figures,
// and doubles as the dataset generator for the CLI pipeline.
//
//	aglbench -exp all                     # every table and figure, moderate scale
//	aglbench -exp table4 -quick           # one experiment, CI scale
//	aglbench -gen data -gen-nodes 400     # write nodes/edges/targets TSVs
//
// Output juxtaposes measured values with the paper's reported numbers. How
// fast the system runs is not measured here: that is bench/ (bash
// bench/run.sh). To profile an experiment, run its benchmark under go test:
//
//	go test -run '^$' -bench Table4 -cpuprofile cpu.out .
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"agl/internal/datagen"
	"agl/internal/experiments"
	"agl/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aglbench: ")

	var opt experiments.Options
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments.AllExperiments, "|")+"|all")
	flag.BoolVar(&opt.Quick, "quick", false, "CI-scale datasets and epochs")
	flag.Int64Var(&opt.Seed, "seed", 1, "global seed")
	verbose := flag.Bool("v", false, "progress logging")
	gen := flag.String("gen", "", "write a generated UUG dataset (nodes.tsv/edges.tsv/targets.tsv) to this directory and exit")
	genNodes := flag.Int("gen-nodes", 400, "node count for -gen")
	genDim := flag.Int("gen-dim", 8, "feature dimension for -gen")
	flag.Parse()

	if *gen != "" {
		if err := runGen(*gen, *genNodes, *genDim, opt.Seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *verbose {
		opt.Logf = log.Printf
	}
	run := func(name string, f func() (fmt.Stringer, error)) {
		res, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(res)
	}

	var names []string
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "all" {
			names = append(names, experiments.AllExperiments...)
		} else {
			names = append(names, name)
		}
	}
	for _, name := range names {
		switch name {
		case "table1":
			fmt.Println(experiments.Table1())
		case "table2":
			run("table2", func() (fmt.Stringer, error) { return experiments.Table2(opt) })
		case "table3":
			run("table3", func() (fmt.Stringer, error) { return experiments.Table3(opt) })
		case "table4":
			run("table4", func() (fmt.Stringer, error) { return experiments.Table4(opt) })
		case "table5":
			run("table5", func() (fmt.Stringer, error) { return experiments.Table5(opt) })
		case "fig7":
			run("fig7", func() (fmt.Stringer, error) { return experiments.Fig7(opt) })
		case "fig8":
			run("fig8", func() (fmt.Stringer, error) { return experiments.Fig8(opt) })
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}
}

// runGen materializes a small UUG dataset as the TSV tables the CLI
// pipeline (graphflat -> graphtrainer -> graphinfer -> aglserve) consumes.
func runGen(dir string, nodes, dim int, seed int64) error {
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: nodes, FeatDim: dim, Seed: seed})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nf, err := os.Create(filepath.Join(dir, "nodes.tsv"))
	if err != nil {
		return err
	}
	if err := graph.WriteNodeTable(nf, ds.G.Nodes); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	ef, err := os.Create(filepath.Join(dir, "edges.tsv"))
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeTable(ef, ds.G.EdgeTable()); err != nil {
		ef.Close()
		return err
	}
	if err := ef.Close(); err != nil {
		return err
	}
	var targets strings.Builder
	for _, id := range ds.Train {
		fmt.Fprintf(&targets, "%d\t%d\n", id, ds.LabelOf(id))
	}
	if err := os.WriteFile(filepath.Join(dir, "targets.tsv"), []byte(targets.String()), 0o644); err != nil {
		return err
	}
	// pairs.tsv feeds the link-prediction pipeline (graphflat -p): positive
	// training pairs sampled from the edge table.
	var pairs strings.Builder
	nPairs := 0
	for i, e := range ds.G.EdgeTable() {
		if i%3 != 0 || nPairs >= 300 {
			continue
		}
		fmt.Fprintf(&pairs, "%d\t%d\t1\n", e.Src, e.Dst)
		nPairs++
	}
	if err := os.WriteFile(filepath.Join(dir, "pairs.tsv"), []byte(pairs.String()), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %d nodes, %d edges, %d targets, %d pairs to %s",
		ds.G.NumNodes(), ds.G.NumEdges(), len(ds.Train), nPairs, dir)
	return nil
}
