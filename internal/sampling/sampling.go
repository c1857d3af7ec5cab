// Package sampling is AGL's neighbor-sampling framework (paper §3.2.2): a
// set of strategies that bound the in-degree of k-hop neighborhoods so hub
// nodes neither skew reducer load nor blow up memory. The same strategy,
// seeded deterministically per node, runs in GraphFlat, GraphInfer and the
// online flattener, so every node has one sampled in-edge set and inference
// stays consistent with the data the model was trained on.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"
)

// Strategy selects at most k of n candidate neighbors.
type Strategy interface {
	// Name identifies the strategy in CLIs and serialized configs.
	Name() string
	// Sample returns the chosen candidate indices (any order, no
	// duplicates). weights[i] is candidate i's edge weight; strategies that
	// ignore weights accept nil.
	Sample(rng *rand.Rand, n int, weights []float64, k int) []int
}

// Uniform samples k candidates uniformly without replacement.
type Uniform struct{}

// Name implements Strategy.
func (Uniform) Name() string { return "uniform" }

// Sample implements Strategy via a partial Fisher–Yates shuffle.
func (Uniform) Sample(rng *rand.Rand, n int, _ []float64, k int) []int {
	if k >= n {
		return all(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Weighted samples k candidates without replacement with probability
// proportional to edge weight, using the exponential-clock method
// (Efraimidis–Spirakis): key_i = weight_i / Exp(1); take the k largest.
type Weighted struct{}

// Name implements Strategy.
func (Weighted) Name() string { return "weighted" }

// Sample implements Strategy.
func (Weighted) Sample(rng *rand.Rand, n int, weights []float64, k int) []int {
	if k >= n {
		return all(n)
	}
	type kv struct {
		key float64
		idx int
	}
	keys := make([]kv, n)
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
			if w <= 0 {
				w = 1e-12
			}
		}
		keys[i] = kv{key: w / rng.ExpFloat64(), idx: i}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key > keys[j].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// TopK deterministically keeps the k heaviest edges (ties broken by index),
// a common industrial strategy for weighted interaction graphs.
type TopK struct{}

// Name implements Strategy.
func (TopK) Name() string { return "topk" }

// Sample implements Strategy.
func (TopK) Sample(_ *rand.Rand, n int, weights []float64, k int) []int {
	if k >= n {
		return all(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		wa, wb := 1.0, 1.0
		if weights != nil {
			wa, wb = weights[idx[a]], weights[idx[b]]
		}
		return wa > wb
	})
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Parse returns the strategy named s.
func Parse(s string) (Strategy, error) {
	switch s {
	case "uniform", "":
		return Uniform{}, nil
	case "weighted":
		return Weighted{}, nil
	case "topk":
		return TopK{}, nil
	}
	return nil, fmt.Errorf("sampling: unknown strategy %q", s)
}

// NodeRNG derives a deterministic RNG for one node from a pipeline seed, so
// GraphFlat, GraphInfer and the online flattener make identical sampling
// decisions — the property the paper relies on for unbiased inference.
// stream separates the independent draws a node needs: 0 is its sampling
// decision, 1+s the pre-sample of shard s of a re-indexed hub. It must never
// carry a round or a depth: a node keeps the same in-edges wherever it is
// met.
func NodeRNG(seed, nodeID int64, stream int) *rand.Rand {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(nodeID) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h ^= uint64(stream+1)*0xBF58476D1CE4E5B9 + (h << 13)
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// Reservoir maintains a uniform sample of size k over a stream.
type Reservoir struct {
	K     int
	Items [][]byte
	seen  int
	rng   *rand.Rand
}

// NewReservoir builds a reservoir sampler of capacity k.
func NewReservoir(k int, rng *rand.Rand) *Reservoir {
	return &Reservoir{K: k, rng: rng}
}

// Offer presents one stream item.
func (r *Reservoir) Offer(item []byte) {
	r.seen++
	if len(r.Items) < r.K {
		r.Items = append(r.Items, item)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.K {
		r.Items[j] = item
	}
}

// Seen reports how many items were offered.
func (r *Reservoir) Seen() int { return r.seen }
