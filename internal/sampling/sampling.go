// Package sampling is AGL's neighbor-sampling framework (paper §3.2.2): a
// set of strategies that bound the in-degree of k-hop neighborhoods so hub
// nodes neither skew reducer load nor blow up memory.
//
// Every strategy is "keep the k highest priorities". A candidate in-edge
// src→dst has priority Strategy.Priority(EdgeU(seed, dst, src), w), a
// function of that one edge only, so GraphFlat, GraphInfer and the online
// flattener keep the same in-edges for every node, and the k best of a union
// are the k best of its parts' k best: hub re-indexing may cut each shard of
// a hub's in-edges to k without changing the decision.
package sampling

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Strategy ranks candidate neighbors for Top.
type Strategy interface {
	// Name identifies the strategy in CLIs and serialized configs.
	Name() string
	// Priority ranks a candidate with key u in (0,1) and edge weight w;
	// higher priorities are kept first.
	Priority(u, w float64) float64
}

// Uniform samples k candidates uniformly without replacement.
type Uniform struct{}

// Name implements Strategy.
func (Uniform) Name() string { return "uniform" }

// Priority implements Strategy: the key itself.
func (Uniform) Priority(u, _ float64) float64 { return u }

// Weighted samples k candidates without replacement with probability
// proportional to edge weight (Efraimidis–Spirakis): the k largest u^(1/w),
// ranked by their logarithm log(u)/w. Non-positive weights count as 1e-12.
type Weighted struct{}

// Name implements Strategy.
func (Weighted) Name() string { return "weighted" }

// Priority implements Strategy.
func (Weighted) Priority(u, w float64) float64 {
	if w <= 0 {
		w = 1e-12
	}
	return math.Log(u) / w
}

// Sample returns the indices of k of n candidates (all n when k >= n),
// drawing each key from rng instead of from the edge. weights[i] is
// candidate i's weight; nil weighs every candidate 1.
func (s Weighted) Sample(rng *rand.Rand, n int, weights []float64, k int) []int {
	prio := make([]float64, n)
	for i := range prio {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		prio[i] = s.Priority(1-rng.Float64(), w)
	}
	return Top(prio, k)
}

// TopK deterministically keeps the k heaviest edges, a common industrial
// strategy for weighted interaction graphs.
type TopK struct{}

// Name implements Strategy.
func (TopK) Name() string { return "topk" }

// Priority implements Strategy: the weight, whatever the key.
func (TopK) Priority(_, w float64) float64 { return w }

// Top returns the indices of the k highest priorities in ascending order
// (all of them when k >= len(prio)); ties go to the lower index.
func Top(prio []float64, k int) []int {
	idx := make([]int, len(prio))
	for i := range idx {
		idx[i] = i
	}
	if k >= len(idx) {
		return idx
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(prio[b], prio[a]); c != 0 {
			return c
		}
		return a - b
	})
	idx = idx[:k]
	slices.Sort(idx)
	return idx
}

// EdgeU is the key of candidate in-edge src→dst under seed: U(seed, dst,
// src). No round, depth or shard enters it, so every stage that meets the
// edge ranks it alike.
func EdgeU(seed, dst, src int64) float64 { return U(uint64(seed), uint64(dst), uint64(src)) }

// U maps Key(xs...) into the open interval (0,1). Sampling priorities and
// every training draw are U of their coordinates, never of earlier draws.
func U(xs ...uint64) float64 { return (float64(Key(xs...)>>12) + 0.5) / (1 << 52) }

// Key folds xs through splitmix64, last first: Key(a, b, c) =
// mix(a ^ mix(b ^ mix(c))). A key is a coordinate of the draws it names.
func Key(xs ...uint64) uint64 {
	var h uint64
	for i := len(xs) - 1; i >= 0; i-- {
		h = mix(xs[i] ^ h)
	}
	return h
}

// Perm is the permutation of [0, n) keyed by key: an inside-out Fisher–Yates
// shuffle whose step i moves p[j] to i and puts i at j = ⌊U(key, i)·(i+1)⌋.
func Perm(key uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(U(key, uint64(i)) * float64(i+1))
		p[i], p[j] = p[j], i
	}
	return p
}

// mix is the splitmix64 step.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
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
