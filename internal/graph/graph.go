// Package graph provides the graph substrate: directed attributed graphs
// with node/edge tables (the inputs of GraphFlat), CSR adjacency, and TSV
// table I/O matching the paper's "node table + edge table" contract.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"agl/internal/sparse"
)

// Node is one row of the node table.
type Node struct {
	ID   int64
	Feat []float64
}

// Edge is one row of the edge table: a directed edge Src→Dst with a weight
// and optional edge features.
type Edge struct {
	Src, Dst int64
	Weight   float64
	Feat     []float64
}

// Graph is an immutable directed attributed graph. Node IDs are arbitrary
// int64s; Index maps them to dense [0,n) indices, which never change: Apply
// appends new nodes and there is no node removal.
//
// The edge set has two forms. Edges is the edge table as Build made it
// (self loops dropped, duplicates merged), which the offline pipelines read.
// The row-addressed adjacency — per dense node an in-row (src, weight, edge
// features) and an out-row (dst) — is what the online tier reads and the
// only form Apply maintains; it is built from Edges on first use, so a
// graph that is only flattened offline never pays for it. On a snapshot
// returned by Apply, Edges is nil: NumEdges, EdgeTable, InRow and OutRow are
// correct on every snapshot, and code that may meet either kind uses them.
//
// Self loops are dropped on construction: the GNN layers (GAT in
// particular) add their own self-attention term and must not double count.
type Graph struct {
	Nodes []Node
	Edges []Edge

	index map[int64]int

	// in[i] and out[i] are node i's rows. Rows are never written in place:
	// Apply replaces the ones it touches, so snapshots share all the others.
	rowsOnce sync.Once
	in       [][]InEdge
	out      [][]int32
	numEdges int
}

// InEdge is one entry of a node's in-row: the edge from dense index Src.
type InEdge struct {
	Src    int32
	Weight float64
	Feat   []float64
}

// Build constructs a Graph from node and edge rows. Edges referring to
// unknown nodes are an error; duplicate node IDs are an error; self loops
// are silently dropped; duplicate (src, dst) edges are merged by summing
// their weights so the graph is a simple weighted digraph — the contract
// every AGL pipeline (CSR adjacency, GraphFlat, GraphInfer) assumes.
func Build(nodes []Node, edges []Edge) (*Graph, error) {
	g := &Graph{Nodes: nodes, index: make(map[int64]int, len(nodes))}
	for i, n := range nodes {
		if _, dup := g.index[n.ID]; dup {
			return nil, fmt.Errorf("graph: duplicate node id %d", n.ID)
		}
		g.index[n.ID] = i
	}
	g.Edges = make([]Edge, 0, len(edges))
	pos := make(map[[2]int64]int, len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		if _, ok := g.index[e.Src]; !ok {
			return nil, fmt.Errorf("graph: edge source %d not in node table", e.Src)
		}
		if _, ok := g.index[e.Dst]; !ok {
			return nil, fmt.Errorf("graph: edge destination %d not in node table", e.Dst)
		}
		if e.Weight == 0 {
			e.Weight = 1
		}
		k := [2]int64{e.Src, e.Dst}
		if i, dup := pos[k]; dup {
			g.Edges[i].Weight += e.Weight
			continue
		}
		pos[k] = len(g.Edges)
		g.Edges = append(g.Edges, e)
	}
	g.numEdges = len(g.Edges)
	return g, nil
}

// rows returns the adjacency spines, building them from the edge table on
// first use (safe under concurrent first use).
func (g *Graph) rows() (in [][]InEdge, out [][]int32) {
	g.rowsOnce.Do(func() {
		if g.Edges == nil { // Apply set the spines
			return
		}
		g.in, g.out = make([][]InEdge, len(g.Nodes)), make([][]int32, len(g.Nodes))
		for _, e := range g.Edges {
			si, di := g.index[e.Src], g.index[e.Dst]
			g.in[di] = append(g.in[di], InEdge{Src: int32(si), Weight: e.Weight, Feat: e.Feat})
			g.out[si] = append(g.out[si], int32(di))
		}
	})
	return g.in, g.out
}

// InRow returns the in-edges of the node at dense index i, in edge-table
// order (Apply appends). The row is shared between snapshots: read only.
func (g *Graph) InRow(i int) []InEdge {
	in, _ := g.rows()
	return in[i]
}

// OutRow returns the dense indices the node at dense index i points at.
// The row is shared between snapshots: read only.
func (g *Graph) OutRow(i int) []int32 {
	_, out := g.rows()
	return out[i]
}

// EdgeTable returns the edge set as an edge table: Build's own table when
// the graph came from Build, otherwise one materialized from the in-rows
// (O(E) per call, grouped by destination). Read only.
func (g *Graph) EdgeTable() []Edge {
	if g.Edges != nil {
		return g.Edges
	}
	edges := make([]Edge, 0, g.numEdges)
	for di, row := range g.in {
		for _, e := range row {
			edges = append(edges, Edge{Src: g.Nodes[e.Src].ID, Dst: g.Nodes[di].ID, Weight: e.Weight, Feat: e.Feat})
		}
	}
	return edges
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// FeatureDim returns the node feature dimensionality (0 for empty graphs).
func (g *Graph) FeatureDim() int {
	if len(g.Nodes) == 0 {
		return 0
	}
	return len(g.Nodes[0].Feat)
}

// Index returns the dense index of a node ID.
func (g *Graph) Index(id int64) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// MustIndex returns the dense index of id, panicking when absent.
func (g *Graph) MustIndex(id int64) int {
	i, ok := g.index[id]
	if !ok {
		panic(fmt.Sprintf("graph: unknown node id %d", id))
	}
	return i
}

// Node returns the node with the given ID.
func (g *Graph) Node(id int64) (Node, bool) {
	if i, ok := g.index[id]; ok {
		return g.Nodes[i], true
	}
	return Node{}, false
}

// CSR builds the adjacency matrix with rows as destinations and columns as
// sources (A[v][u] = weight of edge u→v), the orientation used throughout
// AGL: a row gathers a node's in-edges.
func (g *Graph) CSR() *sparse.CSR {
	es := make([]sparse.Coo, 0, g.numEdges)
	for _, e := range g.EdgeTable() {
		es = append(es, sparse.Coo{
			Row: g.index[e.Dst],
			Col: g.index[e.Src],
			Val: e.Weight,
		})
	}
	return sparse.NewCSR(len(g.Nodes), len(g.Nodes), es)
}

// InDegrees returns the (unweighted) in-degree of every node by dense index.
func (g *Graph) InDegrees() []int { return g.degrees(func(e Edge) int64 { return e.Dst }) }

func (g *Graph) degrees(end func(Edge) int64) []int {
	deg := make([]int, len(g.Nodes))
	for _, e := range g.EdgeTable() {
		deg[g.index[end(e)]]++
	}
	return deg
}

// AddReverseEdges returns a new graph with every edge mirrored (undirected
// semantics, paper §2.1: an undirected edge becomes two directed edges with
// the same features). Existing reverse edges are merged by NewCSR later, so
// duplicates are harmless but avoided here.
func (g *Graph) AddReverseEdges() (*Graph, error) {
	table := g.EdgeTable()
	seen := make(map[[2]int64]bool, len(table)*2)
	for _, e := range table {
		seen[[2]int64{e.Src, e.Dst}] = true
	}
	edges := append([]Edge(nil), table...)
	for _, e := range table {
		if !seen[[2]int64{e.Dst, e.Src}] {
			edges = append(edges, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight, Feat: e.Feat})
			seen[[2]int64{e.Dst, e.Src}] = true
		}
	}
	return Build(g.Nodes, edges)
}

// IDs returns all node IDs in table order.
func (g *Graph) IDs() []int64 {
	out := make([]int64, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = n.ID
	}
	return out
}

// SortedIDs returns all node IDs in ascending order.
func (g *Graph) SortedIDs() []int64 {
	out := g.IDs()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes the graph for dataset tables.
type Stats struct {
	Nodes, Edges int
	FeatureDim   int
	MaxInDegree  int
	MeanInDegree float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), FeatureDim: g.FeatureDim()}
	deg := g.InDegrees()
	var sum int
	for _, d := range deg {
		sum += d
		if d > s.MaxInDegree {
			s.MaxInDegree = d
		}
	}
	if len(deg) > 0 {
		s.MeanInDegree = float64(sum) / float64(len(deg))
	}
	return s
}
