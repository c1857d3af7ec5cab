package main

import (
	"math/rand"
	"testing"

	"agl"
	"agl/internal/graph"
	"agl/internal/placement"
)

func TestRoutedTrafficNeverTouchesAnOwnedID(t *testing.T) {
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: 3000, FeatDim: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Ownership depends on the slot count and the number of replicas only,
	// so any two addresses stand for the real ones.
	table, err := placement.Even([]string{"a", "b"}, placement.DefaultSlots)
	if err != nil {
		t.Fatal(err)
	}
	ids := nonOwnedIDs(ds.G.SortedIDs(), table, 0)
	if len(ids) == 0 || len(ids) == ds.G.NumNodes() {
		t.Fatalf("%d of %d ids are non-owned; want a proper subset", len(ids), ds.G.NumNodes())
	}
	calls := readMix(rand.New(rand.NewSource(5)), ids, 5000, 0)
	kinds := map[reqKind]int{}
	for _, c := range calls {
		kinds[c.kind]++
		for _, id := range c.ids {
			if table.OwnerOf(id) == 0 {
				t.Fatalf("request of kind %d names id %d, which replica 0 owns", c.kind, id)
			}
		}
		if c.kind == kindScores && len(c.ids) != scoresPerBulk {
			t.Fatalf("bulk request of %d ids, want %d", len(c.ids), scoresPerBulk)
		}
	}
	for kind, share := range map[reqKind]float64{kindScore: 0.8, kindLink: 0.1, kindScores: 0.1} {
		if got := float64(kinds[kind]) / float64(len(calls)); got < share-0.03 || got > share+0.03 {
			t.Errorf("kind %d is %.3f of the mix, want about %.1f", kind, got, share)
		}
	}
}

func TestSameSeedSameTraffic(t *testing.T) {
	ids := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946,
		17711, 28657, 46368, 75025, 121393, 196418, 317811, 514229, 832040, 1346269, 2178309, 3524578, 5702887}
	a := readMix(rand.New(rand.NewSource(9)), ids, 500, 0.05)
	b := readMix(rand.New(rand.NewSource(9)), ids, 500, 0.05)
	c := readMix(rand.New(rand.NewSource(10)), ids, 500, 0.05)
	same := func(x, y []call) bool {
		for i := range x {
			if x[i].kind != y[i].kind || len(x[i].ids) != len(y[i].ids) {
				return false
			}
			for k := range x[i].ids {
				if x[i].ids[k] != y[i].ids[k] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if same(a, c) {
		t.Error("two seeds gave the same schedule")
	}
}

// Every batch of the stream applies in full whatever order batches land in:
// each removal names a distinct edge of the original graph.
func TestMutationStreamAlwaysApplies(t *testing.T) {
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: 1500, FeatDim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := mutationStream(rand.New(rand.NewSource(3)), ds.G, append([]int{64}, repeated(mutationsPerBatch, 200)...))
	if err != nil {
		t.Fatal(err)
	}
	removed := map[[2]int64]bool{}
	ops := map[graph.MutOp]int{}
	// Apply in reverse, the least favourable order for a remove that
	// depended on an earlier add.
	g := ds.G
	for i := len(batches) - 1; i >= 0; i-- {
		if want := map[bool]int{true: 64, false: mutationsPerBatch}[i == 0]; len(batches[i].muts) != want {
			t.Fatalf("batch %d holds %d mutations, want %d", i, len(batches[i].muts), want)
		}
		next, errs := g.Apply(batches[i].muts)
		for j, e := range errs {
			if e != nil {
				t.Fatalf("batch %d mutation %d: %v", i, j, e)
			}
		}
		g = next
		for _, m := range batches[i].muts {
			ops[m.Op]++
			if m.Op == graph.OpRemoveEdge {
				key := [2]int64{m.Src, m.Dst}
				if removed[key] {
					t.Fatalf("edge %v removed twice", key)
				}
				removed[key] = true
			}
		}
	}
	for _, op := range []graph.MutOp{graph.OpAddEdge, graph.OpRemoveEdge, graph.OpUpdateNodeFeat} {
		if ops[op] == 0 {
			t.Errorf("the stream holds no %v", op)
		}
	}
}

func TestSameAnswerIsBitExactButLayoutBlind(t *testing.T) {
	want := encodeBody(map[string]any{"node": int64(7), "scores": []float64{0.1234567890123456}})
	if !sameAnswer(want, want) {
		t.Error("identical bodies differ")
	}
	if !sameAnswer([]byte(`{ "scores":[0.1234567890123456], "node":7 }`), want) {
		t.Error("a re-ordered, re-spaced body with the same values differs")
	}
	if sameAnswer([]byte(`{"node":7,"scores":[0.1234567890123457]}`), want) {
		t.Error("a score one ulp-ish off counts as the same answer")
	}
	if sameAnswer([]byte(`{"node":8,"scores":[0.1234567890123456]}`), want) {
		t.Error("another node's answer counts as the same")
	}
}
