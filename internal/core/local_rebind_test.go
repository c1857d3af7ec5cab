package core

import (
	"math/rand"
	"reflect"
	"testing"

	"agl/internal/graph"
)

// applyAndRebind applies one mutation batch and rebinds the flattener,
// failing the test on any per-mutation error.
func applyAndRebind(t *testing.T, lf *LocalFlattener, muts []graph.Mutation) *LocalFlattener {
	t.Helper()
	next, errs := lf.Graph().Apply(muts)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutation %d (%+v): %v", i, muts[i], err)
		}
	}
	return lf.Rebind(next, muts)
}

// TestRebindMatchesFreshFlattener is the flattener-level property test:
// after any random mutation sequence, every extraction from the
// incrementally rebound flattener must be byte-identical to one from a
// flattener freshly constructed over the mutated graph — with sampling
// both disabled and enabled (candidate order canonicalizes before the
// strategy runs, so the shared rows cannot skew decisions).
func TestRebindMatchesFreshFlattener(t *testing.T) {
	for _, cfg := range []FlatConfig{
		{Hops: 2, Seed: 4},
		{Hops: 2, Seed: 4, MaxNeighbors: 3},
		{Hops: 3, Seed: 9, MaxNeighbors: 2},
	} {
		g := buildInferGraph(t)
		lf := NewLocalFlattener(cfg, g)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(cfg.MaxNeighbors)))
		nextID := int64(1 << 20)

		for batch := 0; batch < 6; batch++ {
			var muts []graph.Mutation
			cur := lf.Graph()
			for k := 0; k < 1+rng.Intn(5); k++ {
				switch rng.Intn(4) {
				case 0:
					feat := make([]float64, cur.FeatureDim())
					for j := range feat {
						feat[j] = rng.NormFloat64()
					}
					muts = append(muts, graph.AddNode(nextID, feat))
					nextID++
				case 1:
					s := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					d := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					if s != d {
						muts = append(muts, graph.AddEdge(s, d, 1+rng.Float64()))
					}
				case 2:
					if cur.NumEdges() > 0 {
						e := cur.EdgeTable()[rng.Intn(cur.NumEdges())]
						muts = append(muts, graph.RemoveEdge(e.Src, e.Dst))
					}
				case 3:
					id := cur.Nodes[rng.Intn(cur.NumNodes())].ID
					feat := make([]float64, cur.FeatureDim())
					for j := range feat {
						feat[j] = rng.NormFloat64()
					}
					muts = append(muts, graph.UpdateNodeFeat(id, feat))
				}
			}
			// Drop duplicate RemoveEdge targets within one batch (would be a
			// legitimate per-mutation error, which this test treats as fatal).
			seen := map[[2]int64]bool{}
			dedup := muts[:0]
			for _, m := range muts {
				if m.Op == graph.OpRemoveEdge {
					k := [2]int64{m.Src, m.Dst}
					if seen[k] {
						continue
					}
					seen[k] = true
				}
				dedup = append(dedup, m)
			}
			lf = applyAndRebind(t, lf, dedup)

			fresh := NewLocalFlattener(cfg, lf.Graph())
			if !reflect.DeepEqual(fresh.deg, lf.deg) {
				t.Fatalf("cfg %+v batch %d: degree arrays diverge", cfg, batch)
			}
			for _, n := range lf.Graph().Nodes {
				got, err := lf.GraphFeature(n.ID)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.GraphFeature(n.ID)
				if err != nil {
					t.Fatal(err)
				}
				gn, ge := subgraphSets(got.SG)
				wn, we := subgraphSets(want.SG)
				if !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ge, we) {
					t.Fatalf("cfg %+v batch %d: node %d extraction diverged\nrebound: %v %v\nfresh:   %v %v",
						cfg, batch, n.ID, gn, ge, wn, we)
				}
			}
		}
	}
}

// TestRebindOldVersionStaysConsistent: a flattener bound to the old
// version must keep extracting the pre-mutation neighborhood.
func TestRebindOldVersionStaysConsistent(t *testing.T) {
	g := buildInferGraph(t)
	cfg := FlatConfig{Hops: 2, Seed: 4}
	old := NewLocalFlattener(cfg, g)
	target := g.Nodes[0].ID

	before, err := old.GraphFeature(target)
	if err != nil {
		t.Fatal(err)
	}
	bn, be := subgraphSets(before.SG)

	// Mutate heavily around the target: add a fresh hub pointing at it.
	muts := []graph.Mutation{graph.AddNode(999999, make([]float64, g.FeatureDim()))}
	muts = append(muts, graph.AddEdge(999999, target, 3))
	rebound := applyAndRebind(t, old, muts)

	after, err := old.GraphFeature(target)
	if err != nil {
		t.Fatal(err)
	}
	an, ae := subgraphSets(after.SG)
	if !reflect.DeepEqual(bn, an) || !reflect.DeepEqual(be, ae) {
		t.Fatal("old-version flattener saw the mutation")
	}

	got, err := rebound.GraphFeature(target)
	if err != nil {
		t.Fatal(err)
	}
	gn, _ := subgraphSets(got.SG)
	found := false
	for _, id := range gn {
		if id == 999999 {
			found = true
		}
	}
	if !found {
		t.Fatal("rebound flattener missing the new in-neighbor")
	}
}
