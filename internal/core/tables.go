// Package core implements the AGL system itself — the paper's three
// modules, built on the substrate packages:
//
//   - GraphFlat (flatten.go): the distributed k-hop-neighborhood generator,
//     a MapReduce pipeline of one join round plus K merge/propagate rounds,
//     with hub re-indexing and the sampling framework.
//   - GraphTrainer (trainer.go, batch.go): parameter-server training over
//     self-contained GraphFeatures with the training pipeline, graph
//     pruning and edge partitioning optimizations.
//   - GraphInfer (infer.go): hierarchical model segmentation plus a K+1
//     round MapReduce inference pipeline that computes every embedding
//     exactly once.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"agl/internal/graph"
	"agl/internal/mapreduce"
)

// Table row records are TSV lines with a leading tag column:
//
//	N <id> <f1,f2,...>          node row
//	E <src> <dst> <weight>      edge row
//
// This is the "node table and edge table" input contract of paper §3.2.1.

// EncodeNodeRow renders a node-table record.
func EncodeNodeRow(n graph.Node) []byte {
	parts := make([]string, 0, len(n.Feat))
	for _, f := range n.Feat {
		parts = append(parts, strconv.FormatFloat(f, 'g', -1, 64))
	}
	return []byte(fmt.Sprintf("N\t%d\t%s", n.ID, strings.Join(parts, ",")))
}

// EncodeEdgeRow renders an edge-table record; edge features, when present,
// go into a fourth comma-separated column.
func EncodeEdgeRow(e graph.Edge) []byte {
	if len(e.Feat) == 0 {
		return []byte(fmt.Sprintf("E\t%d\t%d\t%s", e.Src, e.Dst,
			strconv.FormatFloat(e.Weight, 'g', -1, 64)))
	}
	parts := make([]string, 0, len(e.Feat))
	for _, f := range e.Feat {
		parts = append(parts, strconv.FormatFloat(f, 'g', -1, 64))
	}
	return []byte(fmt.Sprintf("E\t%d\t%d\t%s\t%s", e.Src, e.Dst,
		strconv.FormatFloat(e.Weight, 'g', -1, 64), strings.Join(parts, ",")))
}

// TableRow is a decoded node- or edge-table record.
type TableRow struct {
	IsNode bool
	Node   graph.Node
	Edge   graph.Edge
}

// DecodeTableRow parses a record written by EncodeNodeRow/EncodeEdgeRow.
func DecodeTableRow(rec []byte) (TableRow, error) {
	s := string(rec)
	parts := strings.Split(s, "\t")
	switch {
	case len(parts) >= 2 && parts[0] == "N":
		id, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return TableRow{}, fmt.Errorf("core: node row id: %w", err)
		}
		var feat []float64
		if len(parts) >= 3 && parts[2] != "" {
			fields := strings.Split(parts[2], ",")
			feat = make([]float64, len(fields))
			for i, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return TableRow{}, fmt.Errorf("core: node row feature: %w", err)
				}
				feat[i] = v
			}
		}
		return TableRow{IsNode: true, Node: graph.Node{ID: id, Feat: feat}}, nil
	case len(parts) >= 4 && parts[0] == "E":
		src, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return TableRow{}, fmt.Errorf("core: edge row src: %w", err)
		}
		dst, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return TableRow{}, fmt.Errorf("core: edge row dst: %w", err)
		}
		w, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return TableRow{}, fmt.Errorf("core: edge row weight: %w", err)
		}
		var feat []float64
		if len(parts) >= 5 && parts[4] != "" {
			fields := strings.Split(parts[4], ",")
			feat = make([]float64, len(fields))
			for i, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return TableRow{}, fmt.Errorf("core: edge row feature: %w", err)
				}
				feat[i] = v
			}
		}
		return TableRow{Edge: graph.Edge{Src: src, Dst: dst, Weight: w, Feat: feat}}, nil
	}
	return TableRow{}, fmt.Errorf("core: malformed table row %q", s)
}

// TableRecords renders a whole graph as table records (nodes then edges).
func TableRecords(g *graph.Graph) [][]byte {
	out := make([][]byte, 0, g.NumNodes()+g.NumEdges())
	for _, n := range g.Nodes {
		out = append(out, EncodeNodeRow(n))
	}
	for _, e := range g.EdgeTable() {
		out = append(out, EncodeEdgeRow(e))
	}
	return out
}

// WeightedInDegrees runs a small MapReduce job counting each node's
// weighted in-degree plus one (the self-loop term GCN normalization needs).
// It doubles as the hub detector for re-indexing: the unweighted in-degree
// is returned alongside.
func WeightedInDegrees(records mapreduce.Input, cfg mapreduce.Config) (map[int64]float64, map[int64]int, error) {
	cfg.Name = "degrees"
	mapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		row, err := DecodeTableRow(rec)
		if err != nil {
			return err
		}
		if row.IsNode {
			// Ensure isolated nodes appear with degree 1.
			return emit(mapreduce.KeyValue{
				Key:   strconv.FormatInt(row.Node.ID, 10),
				Value: []byte("n"),
			})
		}
		return emit(mapreduce.KeyValue{
			Key:   strconv.FormatInt(row.Edge.Dst, 10),
			Value: []byte("e," + strconv.FormatFloat(row.Edge.Weight, 'g', -1, 64)),
		})
	})
	reducer := mapreduce.ReducerFunc(func(key string, values mapreduce.ValueIter, emit mapreduce.Emit) error {
		var w float64
		var count int
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			s := string(v)
			if s == "n" {
				continue
			}
			wv, err := strconv.ParseFloat(strings.TrimPrefix(s, "e,"), 64)
			if err != nil {
				return err
			}
			w += wv
			count++
		}
		if err := values.Err(); err != nil {
			return err
		}
		return emit(mapreduce.KeyValue{
			Key:   key,
			Value: []byte(fmt.Sprintf("%s,%d", strconv.FormatFloat(w+1, 'g', -1, 64), count)),
		})
	})
	out := mapreduce.NewMemOutput()
	if _, err := mapreduce.Run(cfg, mapper, reducer, records, out); err != nil {
		return nil, nil, err
	}
	weighted := make(map[int64]float64)
	unweighted := make(map[int64]int)
	for _, kv := range out.Pairs() {
		id, err := strconv.ParseInt(kv.Key, 10, 64)
		if err != nil {
			return nil, nil, err
		}
		fields := strings.Split(string(kv.Value), ",")
		w, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, nil, err
		}
		c, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, err
		}
		weighted[id] = w
		unweighted[id] = c
	}
	return weighted, unweighted, nil
}
