package graph

import (
	"bytes"
	"strings"
	"testing"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(
		[]Node{
			{ID: 10, Feat: []float64{1, 2}},
			{ID: 20, Feat: []float64{3, 4}},
			{ID: 30, Feat: []float64{5, 6}},
		},
		[]Edge{
			{Src: 10, Dst: 20, Weight: 2},
			{Src: 20, Dst: 30},
			{Src: 30, Dst: 10, Weight: 0.5},
			{Src: 10, Dst: 10}, // self loop, dropped
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := testGraph(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.FeatureDim() != 2 {
		t.Fatalf("feat dim %d", g.FeatureDim())
	}
	if i, ok := g.Index(20); !ok || i != 1 {
		t.Fatalf("Index(20)=%d,%v", i, ok)
	}
	if _, ok := g.Index(99); ok {
		t.Fatal("unknown id resolved")
	}
	n, ok := g.Node(30)
	if !ok || n.Feat[0] != 5 {
		t.Fatal("Node lookup failed")
	}
	// Defaulted weight.
	for _, e := range g.Edges {
		if e.Src == 20 && e.Weight != 1 {
			t.Fatalf("default weight not applied: %v", e.Weight)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]Node{{ID: 1}, {ID: 1}}, nil); err == nil {
		t.Fatal("expected duplicate node error")
	}
	if _, err := Build([]Node{{ID: 1}}, []Edge{{Src: 1, Dst: 2}}); err == nil {
		t.Fatal("expected unknown destination error")
	}
	if _, err := Build([]Node{{ID: 2}}, []Edge{{Src: 1, Dst: 2}}); err == nil {
		t.Fatal("expected unknown source error")
	}
}

func TestCSROrientation(t *testing.T) {
	g := testGraph(t)
	a := g.CSR()
	// Edge 10->20 must appear at row index(20), col index(10).
	if a.At(g.MustIndex(20), g.MustIndex(10)) != 2 {
		t.Fatal("CSR orientation wrong: rows must be destinations")
	}
	if a.At(g.MustIndex(10), g.MustIndex(20)) != 0 {
		t.Fatal("CSR has reversed edge that doesn't exist")
	}
}

// outDegrees returns the (unweighted) out-degree of every node by dense
// index.
func outDegrees(g *Graph) []int { return g.degrees(func(e Edge) int64 { return e.Src }) }

func TestDegrees(t *testing.T) {
	g := testGraph(t)
	in := g.InDegrees()
	out := outDegrees(g)
	if in[g.MustIndex(20)] != 1 || out[g.MustIndex(10)] != 1 {
		t.Fatalf("degrees wrong: in=%v out=%v", in, out)
	}
}

func TestAddReverseEdges(t *testing.T) {
	g := testGraph(t)
	u, err := g.AddReverseEdges()
	if err != nil {
		t.Fatal(err)
	}
	if u.NumEdges() != 6 {
		t.Fatalf("edges=%d want 6", u.NumEdges())
	}
	// Idempotent: mirroring again adds nothing.
	u2, err := u.AddReverseEdges()
	if err != nil {
		t.Fatal(err)
	}
	if u2.NumEdges() != 6 {
		t.Fatalf("AddReverseEdges not idempotent: %d", u2.NumEdges())
	}
}

func TestStats(t *testing.T) {
	g := testGraph(t)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 3 || s.MaxInDegree != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestNodeTableRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := WriteNodeTable(&buf, g.Nodes); err != nil {
		t.Fatal(err)
	}
	nodes, err := ReadNodeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[1].ID != 20 || nodes[1].Feat[1] != 4 {
		t.Fatalf("round trip: %+v", nodes)
	}
}

func TestEdgeTableRoundTrip(t *testing.T) {
	edges := []Edge{
		{Src: 1, Dst: 2, Weight: 0.5, Feat: []float64{9, 8}},
		{Src: 2, Dst: 3, Weight: 1},
	}
	var buf bytes.Buffer
	if err := WriteEdgeTable(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Weight != 0.5 || got[0].Feat[1] != 8 || got[1].Feat != nil {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadTablesRejectGarbage(t *testing.T) {
	if _, err := ReadNodeTable(strings.NewReader("notanint\t1,2\n")); err == nil {
		t.Fatal("expected node parse error")
	}
	if _, err := ReadEdgeTable(strings.NewReader("1\n")); err == nil {
		t.Fatal("expected edge column error")
	}
	if _, err := ReadEdgeTable(strings.NewReader("1\t2\tx\n")); err == nil {
		t.Fatal("expected weight parse error")
	}
}

func TestSortedIDs(t *testing.T) {
	g, _ := Build([]Node{{ID: 5}, {ID: 1}, {ID: 3}}, nil)
	ids := g.SortedIDs()
	if ids[0] != 1 || ids[2] != 5 {
		t.Fatalf("SortedIDs: %v", ids)
	}
}
