package datagen

import (
	"fmt"
	"math/rand"

	"agl/internal/graph"
	"agl/internal/wire"
)

// LinkConfig parameterizes held-out-edge link-prediction splits over any
// generated dataset (Cora/PPI/UUG). Zero values take sensible defaults.
type LinkConfig struct {
	// TestFrac is the fraction of edges held out for evaluation
	// (default 0.1). Reciprocal edge pairs are held out together — leaving
	// (v,u) in the training graph while testing (u,v) would leak the
	// answer through the reverse edge.
	TestFrac float64
	// NegPerPos is the number of sampled negative pairs per held-out
	// positive (default 1). Negatives are uniform non-edges.
	NegPerPos int
	// MaxTrainPairs caps the positive training pairs (0 = every remaining
	// edge). Training negatives are sampled at batch-assembly time, not
	// here.
	MaxTrainPairs int
	Seed          int64
}

// Validate rejects nonsensical link-split parameters.
func (c LinkConfig) Validate() error {
	if c.TestFrac < 0 || c.TestFrac >= 1 {
		return fmt.Errorf("datagen: LinkConfig.TestFrac must be in [0, 1) (0 selects the default), got %v", c.TestFrac)
	}
	if c.NegPerPos < 0 {
		return fmt.Errorf("datagen: LinkConfig.NegPerPos must be >= 1 (0 selects 1), got %d", c.NegPerPos)
	}
	if c.MaxTrainPairs < 0 {
		return fmt.Errorf("datagen: LinkConfig.MaxTrainPairs must be >= 0 (0 keeps all), got %d", c.MaxTrainPairs)
	}
	return nil
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.TestFrac == 0 {
		c.TestFrac = 0.1
	}
	if c.NegPerPos == 0 {
		c.NegPerPos = 1
	}
	return c
}

// LinkDataset is a held-out-edge split for link prediction: the training
// graph with the held-out edges removed, positive training pairs, and a
// test set of held-out positives plus sampled negatives.
type LinkDataset struct {
	Name string
	// G is the training graph: ds.G minus the held-out edges (both
	// directions of a reciprocal pair). Flatten, Infer and Serve must all
	// run on this graph, never the original, or the held-out edges leak.
	G *graph.Graph
	// Train holds positive (label 1) training pairs — remaining edges.
	Train []wire.EdgeTarget
	// Test holds held-out positives (label 1) and sampled non-edge
	// negatives (label 0).
	Test []wire.EdgeTarget
}

// Summary renders split statistics.
func (l *LinkDataset) Summary() string {
	pos := 0
	for _, p := range l.Test {
		if p.Label == 1 {
			pos++
		}
	}
	return fmt.Sprintf("%s: train-graph edges=%d train-pairs=%d test-pos=%d test-neg=%d",
		l.Name, l.G.NumEdges(), len(l.Train), pos, len(l.Test)-pos)
}

// Links builds a held-out-edge link-prediction split from a generated
// dataset. Undirected/reciprocal structure is respected: an unordered pair
// is held out atomically, so the training graph carries no direction of a
// test edge.
func Links(ds *Dataset, cfg LinkConfig) (*LinkDataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Group directed edges by unordered endpoint pair.
	type pairKey [2]int64
	unordered := func(a, b int64) pairKey {
		if a > b {
			a, b = b, a
		}
		return pairKey{a, b}
	}
	edges := ds.G.EdgeTable()
	groups := make(map[pairKey][]int)
	var order []pairKey
	exists := make(map[[2]int64]bool, len(edges))
	for i, e := range edges {
		k := unordered(e.Src, e.Dst)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
		exists[[2]int64{e.Src, e.Dst}] = true
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	wantHeld := int(cfg.TestFrac * float64(len(edges)))
	held := make(map[int]bool)
	var testPos []wire.EdgeTarget
	for _, k := range order {
		if len(held) >= wantHeld {
			break
		}
		idxs := groups[k]
		for _, i := range idxs {
			held[i] = true
		}
		// One canonical direction per held-out pair becomes the test
		// positive; scoring the reverse would double-count the same event.
		e := edges[idxs[0]]
		testPos = append(testPos, wire.EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
	}
	if len(testPos) == 0 {
		return nil, fmt.Errorf("datagen: link split held out no edges (graph has %d, TestFrac %v)",
			len(edges), cfg.TestFrac)
	}

	var keep []graph.Edge
	var train []wire.EdgeTarget
	for i, e := range edges {
		if held[i] {
			continue
		}
		keep = append(keep, e)
		train = append(train, wire.EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
	}
	if cfg.MaxTrainPairs > 0 && len(train) > cfg.MaxTrainPairs {
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		train = train[:cfg.MaxTrainPairs]
	}
	trainG, err := graph.Build(ds.G.Nodes, keep)
	if err != nil {
		return nil, fmt.Errorf("datagen: link split training graph: %w", err)
	}

	// Uniform non-edge negatives for the test set.
	ids := ds.G.IDs()
	test := append([]wire.EdgeTarget(nil), testPos...)
	wantNeg := cfg.NegPerPos * len(testPos)
	for tries := 0; len(test)-len(testPos) < wantNeg && tries < 100*wantNeg; tries++ {
		s := ids[rng.Intn(len(ids))]
		d := ids[rng.Intn(len(ids))]
		if s == d || exists[[2]int64{s, d}] || exists[[2]int64{d, s}] {
			continue
		}
		test = append(test, wire.EdgeTarget{Src: s, Dst: d, Label: 0})
	}
	return &LinkDataset{Name: ds.Name + "-links", G: trainG, Train: train, Test: test}, nil
}
