// Command graphflat is the CLI front end of GraphFlat (paper Figure 6):
//
//	GraphFlat -n node_table -e edge_table -h hops -s sampling_strategy
//
// It reads TSV node/edge tables plus a target table (id<TAB>label), runs
// the k-hop neighborhood pipeline, and writes GraphFeature records to an
// output dataset directory: part files hash-partitioned by target id plus a
// partitions.json manifest, which graphtrainer -i and graphinfer -flat read.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"agl/internal/core"
	"agl/internal/dfs"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphflat: ")

	var cfg core.FlatConfig
	nodePath := flag.String("n", "", "node table TSV (id<TAB>f1,f2,...)")
	edgePath := flag.String("e", "", "edge table TSV (src<TAB>dst<TAB>weight)")
	targetPath := flag.String("t", "", "target table TSV (id<TAB>label); default: all nodes")
	pairPath := flag.String("p", "", "pair target TSV (src<TAB>dst<TAB>label) for link prediction; emits LinkRecords instead of node records")
	flag.IntVar(&cfg.Hops, "hops", 2, "neighborhood radius K")
	flag.Func("s", "sampling strategy: uniform|weighted|topk (default uniform)", func(s string) (err error) {
		cfg.Strategy, err = sampling.Parse(s)
		return err
	})
	flag.IntVar(&cfg.MaxNeighbors, "max-neighbors", 0, "per-node in-edge cap (0 = unlimited)")
	flag.IntVar(&cfg.HubThreshold, "hub-threshold", 0, "re-indexing threshold (0 = disabled)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "sampling seed")
	flag.IntVar(&cfg.NumReducers, "reducers", 8, "reduce partitions")
	flag.IntVar(&cfg.Partitions, "partitions", 1, "part files the output is hash-partitioned into by target id; graphtrainer and graphinfer -flat hold about two partitions in memory at once")
	flag.BoolVar(&cfg.SpillRounds, "spill", false, "spill intermediate rounds to disk instead of RAM")
	out := flag.String("o", "graphfeatures", "output dataset directory")
	flag.Parse()

	if *nodePath == "" || *edgePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := graph.LoadTables(*nodePath, *edgePath)
	if err != nil {
		log.Fatal(err)
	}
	var targets map[int64]core.Target
	if *pairPath != "" {
		if *targetPath != "" {
			log.Fatal("-t and -p are mutually exclusive (node vs edge targets)")
		}
		cfg.EdgeTargets, err = loadPairs(*pairPath)
		if err == nil && len(cfg.EdgeTargets) == 0 {
			// Without this, an empty pair table would silently fall back to
			// node-target mode and emit 0 records.
			log.Fatalf("pair table %s holds no pairs", *pairPath)
		}
	} else {
		targets, err = loadTargets(*targetPath, g)
	}
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Output, err = dfs.Create(*out); err != nil {
		log.Fatal(err)
	}
	res, err := core.Flatten(cfg, mapreduce.MemInput(core.TableRecords(g)), targets)
	if err != nil {
		log.Fatal(err)
	}
	kind := "GraphFeature"
	if len(cfg.EdgeTargets) > 0 {
		kind = "LinkRecord"
	}
	fmt.Printf("graph: %d nodes, %d edges; hubs re-indexed: %d\n",
		g.NumNodes(), g.NumEdges(), res.HubCount)
	fmt.Printf("wrote %d %s records to %s across %d partitions (%d MR rounds, %.2f MB shuffled)\n",
		res.Partitioned.Records, kind, *out, res.Partitioned.Partitions,
		len(res.RoundStats), float64(res.TotalShuffledBytes())/1e6)
}

// loadPairs reads an edge-target table: src<TAB>dst<TAB>label per line
// (label optional, default 1).
func loadPairs(path string) ([]core.EdgeTarget, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []core.EdgeTarget
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) < 2 {
			return nil, fmt.Errorf("pair table: want src<TAB>dst[<TAB>label], got %q", line)
		}
		p := core.EdgeTarget{Label: 1}
		if p.Src, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return nil, fmt.Errorf("pair table: %w", err)
		}
		if p.Dst, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return nil, fmt.Errorf("pair table: %w", err)
		}
		if len(parts) > 2 {
			if p.Label, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
				return nil, fmt.Errorf("pair table: %w", err)
			}
		}
		out = append(out, p)
	}
	return out, sc.Err()
}

func loadTargets(path string, g *graph.Graph) (map[int64]core.Target, error) {
	targets := make(map[int64]core.Target)
	if path == "" {
		for _, id := range g.IDs() {
			targets[id] = core.Target{Label: -1}
		}
		return targets, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		id, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("target table: %w", err)
		}
		t := core.Target{Label: -1}
		if len(parts) > 1 {
			t.Label, err = strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("target table: %w", err)
			}
			t.LabelVec = []float64{float64(t.Label)}
		}
		targets[id] = t
	}
	return targets, sc.Err()
}
