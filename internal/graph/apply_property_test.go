package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// tables is the reference model of the property test: the node and edge
// tables a mutation history replays to. Build of them is what every
// snapshot must equal.
type tables struct {
	nodes []Node
	edges []Edge // one entry per (src, dst), weights merged in arrival order
}

func (tb tables) clone() tables {
	return tables{nodes: slices.Clone(tb.nodes), edges: slices.Clone(tb.edges)}
}

func (tb *tables) find(src, dst int64) int {
	return slices.IndexFunc(tb.edges, func(e Edge) bool { return e.Src == src && e.Dst == dst })
}

// replay applies the mutations Apply reported as applied.
func (tb *tables) replay(muts []Mutation, errs []error) {
	for i, m := range muts {
		if errs[i] != nil {
			continue
		}
		switch m.Op {
		case OpAddNode:
			tb.nodes = append(tb.nodes, Node{ID: m.ID, Feat: slices.Clone(m.Feat)})
		case OpUpdateNodeFeat:
			at := slices.IndexFunc(tb.nodes, func(n Node) bool { return n.ID == m.ID })
			tb.nodes[at].Feat = slices.Clone(m.Feat)
		case OpAddEdge:
			w := m.Weight
			if w == 0 {
				w = 1
			}
			if at := tb.find(m.Src, m.Dst); at >= 0 {
				tb.edges[at].Weight += w
			} else {
				tb.edges = append(tb.edges, Edge{Src: m.Src, Dst: m.Dst, Weight: w, Feat: slices.Clone(m.Feat)})
			}
		case OpRemoveEdge:
			at := tb.find(m.Src, m.Dst)
			tb.edges = slices.Delete(tb.edges, at, at+1)
		}
	}
}

// image is a deep copy of everything a snapshot exposes, for checking later
// that the snapshot never changed.
type image struct {
	nodes []Node
	table []Edge
	in    [][]InEdge
	out   [][]int32
}

func imageOf(g *Graph) image {
	im := image{table: slices.Clone(g.EdgeTable())}
	for i, n := range g.Nodes {
		im.nodes = append(im.nodes, Node{ID: n.ID, Feat: slices.Clone(n.Feat)})
		in := slices.Clone(g.InRow(i))
		for j := range in {
			in[j].Feat = slices.Clone(in[j].Feat)
		}
		im.in = append(im.in, in)
		im.out = append(im.out, slices.Clone(g.OutRow(i)))
	}
	for j := range im.table {
		im.table[j].Feat = slices.Clone(im.table[j].Feat)
	}
	return im
}

// equalsBuild fails unless g is the graph Build makes of the tables: same
// nodes at the same dense indices, same edge set with bit-equal merged
// weights and features, same degrees, same CSR.
func equalsBuild(t *testing.T, what string, g *Graph, tb tables) {
	t.Helper()
	want, err := Build(tb.nodes, tb.edges)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", what, err)
	}
	if !reflect.DeepEqual(g.Nodes, want.Nodes) {
		t.Fatalf("%s: node table differs from the rebuild", what)
	}
	for _, n := range want.Nodes {
		gi, _ := g.Index(n.ID)
		wi, _ := want.Index(n.ID)
		if gi != wi {
			t.Fatalf("%s: node %d at dense index %d, rebuild has %d", what, n.ID, gi, wi)
		}
	}
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges, rebuild has %d", what, g.NumEdges(), want.NumEdges())
	}
	type key [2]int64
	got := map[key]Edge{}
	for _, e := range g.EdgeTable() {
		if _, dup := got[key{e.Src, e.Dst}]; dup {
			t.Fatalf("%s: edge %d->%d listed twice", what, e.Src, e.Dst)
		}
		got[key{e.Src, e.Dst}] = e
	}
	for _, e := range want.Edges {
		if !reflect.DeepEqual(got[key{e.Src, e.Dst}], e) {
			t.Fatalf("%s: edge %d->%d is %+v, rebuild has %+v", what, e.Src, e.Dst, got[key{e.Src, e.Dst}], e)
		}
	}
	if !reflect.DeepEqual(g.InDegrees(), want.InDegrees()) || !reflect.DeepEqual(outDegrees(g), outDegrees(want)) {
		t.Fatalf("%s: degrees differ from the rebuild", what)
	}
	if !reflect.DeepEqual(g.CSR(), want.CSR()) {
		t.Fatalf("%s: CSR differs from the rebuild", what)
	}
	// The rows are the same edge set as the table, from both ends.
	outs := 0
	for i := range g.Nodes {
		if len(g.InRow(i)) != want.InDegrees()[i] {
			t.Fatalf("%s: in-row %d holds %d entries, want %d", what, i, len(g.InRow(i)), want.InDegrees()[i])
		}
		for _, di := range g.OutRow(i) {
			if _, ok := got[key{g.Nodes[i].ID, g.Nodes[di].ID}]; !ok {
				t.Fatalf("%s: out-row %d lists a missing edge to %d", what, i, di)
			}
			outs++
		}
	}
	if outs != g.NumEdges() {
		t.Fatalf("%s: out-rows hold %d entries, %d edges", what, outs, g.NumEdges())
	}
}

// randomBatch draws a batch against tb: new edges, merges, removals,
// remove-then-re-add of one edge, feature updates, a new node wired up in
// the same batch, and mutations that must fail. Node 0 is a hub: about half
// of all new edges end or start there.
func randomBatch(rng *rand.Rand, tb tables, nextID *int64) []Mutation {
	feat := func() []float64 { return []float64{rng.NormFloat64(), rng.NormFloat64()} }
	node := func() int64 {
		if rng.Intn(4) == 0 {
			return tb.nodes[0].ID
		}
		return tb.nodes[rng.Intn(len(tb.nodes))].ID
	}
	edge := func() Edge { return tb.edges[rng.Intn(len(tb.edges))] }
	var muts []Mutation
	for k := 1 + rng.Intn(6); k > 0; k-- {
		switch rng.Intn(9) {
		case 0, 1:
			m := AddEdge(node(), node(), float64(rng.Intn(4))) // weight 0 means 1; src == dst must fail
			if rng.Intn(3) == 0 {
				m.Feat = feat()
			}
			muts = append(muts, m)
		case 2:
			if len(tb.edges) > 0 {
				e := edge()
				muts = append(muts, AddEdge(e.Src, e.Dst, 0.5+rng.Float64())) // merge
			}
		case 3:
			if len(tb.edges) > 0 {
				e := edge()
				muts = append(muts, RemoveEdge(e.Src, e.Dst)) // a second removal of it in this batch must fail
			}
		case 4:
			if len(tb.edges) > 0 {
				e := edge()
				re := AddEdge(e.Src, e.Dst, 1+rng.Float64())
				re.Feat = feat()
				muts = append(muts, RemoveEdge(e.Src, e.Dst), re)
				if rng.Intn(2) == 0 {
					muts = append(muts, AddEdge(e.Src, e.Dst, 1)) // merges into the re-added edge
				}
			}
		case 5:
			muts = append(muts, UpdateNodeFeat(node(), feat()))
		case 6:
			id := *nextID
			*nextID++
			muts = append(muts, AddNode(id, feat()), AddEdge(id, node(), 2), AddEdge(node(), id, 0))
		case 7:
			muts = append(muts, RemoveEdge(node(), -5), AddEdge(-5, node(), 1), UpdateNodeFeat(-5, feat()),
				AddNode(tb.nodes[0].ID, feat()), UpdateNodeFeat(node(), []float64{1}))
		case 8:
			hub := tb.nodes[0].ID
			for _, n := range tb.nodes[1:min(len(tb.nodes), 6)] {
				muts = append(muts, AddEdge(n.ID, hub, 1), AddEdge(hub, n.ID, 1))
			}
		}
	}
	return muts
}

// TestApplySchedulesMatchRebuild is the row-level copy-on-write property
// test. Over 240 seeded schedules it checks that every snapshot equals Build
// of the replayed tables, that two successors of one parent do not see each
// other, and that no earlier snapshot changed after all later applies.
func TestApplySchedulesMatchRebuild(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		var tb tables
		for i := 0; i < n; i++ {
			tb.nodes = append(tb.nodes, Node{ID: int64(i * 3), Feat: []float64{rng.NormFloat64(), rng.NormFloat64()}})
		}
		var raw []Edge
		for i := 0; i < 3*n; i++ {
			raw = append(raw, Edge{Src: int64(rng.Intn(n) * 3), Dst: int64(rng.Intn(n) * 3), Weight: float64(rng.Intn(3))})
		}
		for i := 1; i < n; i += 2 {
			raw = append(raw, Edge{Src: int64(i * 3), Dst: 0, Weight: 1}) // the hub's in-row
		}
		cur, err := Build(slices.Clone(tb.nodes), raw)
		if err != nil {
			t.Fatal(err)
		}
		tb.edges = slices.Clone(cur.Edges)

		nextID := int64(1000)
		var snaps []*Graph
		var images []image
		for batch := 0; batch < 10; batch++ {
			snaps, images = append(snaps, cur), append(images, imageOf(cur))

			muts := randomBatch(rng, tb, &nextID)
			next, errs := cur.Apply(muts)
			nextTb := tb.clone()
			nextTb.replay(muts, errs)
			equalsBuild(t, "successor", next, nextTb)
			nextImage := imageOf(next)

			// A sibling successor of the same parent, landing in the same
			// rows: it must equal its own replay and leave next alone.
			sibMuts := append(randomBatch(rng, tb, &nextID), muts...)
			sib, sibErrs := cur.Apply(sibMuts)
			sibTb := tb.clone()
			sibTb.replay(sibMuts, sibErrs)
			equalsBuild(t, "sibling", sib, sibTb)
			if !reflect.DeepEqual(imageOf(next), nextImage) {
				t.Fatalf("seed %d batch %d: a sibling's Apply changed the successor", seed, batch)
			}

			// Apply keeps its own copy of feature payloads.
			for _, m := range muts {
				for j := range m.Feat {
					m.Feat[j] = -99
				}
			}
			if !reflect.DeepEqual(imageOf(next), nextImage) {
				t.Fatalf("seed %d batch %d: rewriting the batch after Apply changed the snapshot", seed, batch)
			}
			cur, tb = next, nextTb
		}
		for i, g := range snaps {
			if !reflect.DeepEqual(imageOf(g), images[i]) {
				t.Fatalf("seed %d: snapshot %d changed under later applies", seed, i)
			}
		}
	}
}
