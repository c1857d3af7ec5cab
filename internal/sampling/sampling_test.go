package sampling

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	for _, name := range []string{"uniform", "weighted", "topk", ""} {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if name != "" && s.Name() != name {
			t.Fatalf("Name()=%q want %q", s.Name(), name)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func checkValid(t *testing.T, idx []int, n, k int) {
	t.Helper()
	want := k
	if n < k {
		want = n
	}
	if len(idx) != want {
		t.Fatalf("got %d indices want %d", len(idx), want)
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= n {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestStrategiesReturnValidSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	for _, s := range []Strategy{Uniform{}, Weighted{}, TopK{}} {
		for _, k := range []int{0, 1, 10, 50, 100} {
			idx := s.Sample(rng, 50, weights, k)
			checkValid(t, idx, 50, k)
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 10)
	for trial := 0; trial < 5000; trial++ {
		for _, i := range (Uniform{}).Sample(rng, 10, nil, 3) {
			counts[i]++
		}
	}
	// Each index expected 1500 times.
	for i, c := range counts {
		if c < 1200 || c > 1800 {
			t.Fatalf("index %d chosen %d times, expected ~1500", i, c)
		}
	}
}

func TestWeightedPrefersHeavyEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{100, 1, 1, 1, 1}
	hits := 0
	for trial := 0; trial < 1000; trial++ {
		for _, i := range (Weighted{}).Sample(rng, 5, weights, 1) {
			if i == 0 {
				hits++
			}
		}
	}
	if hits < 900 {
		t.Fatalf("heavy edge chosen only %d/1000 times", hits)
	}
}

func TestTopKDeterministic(t *testing.T) {
	weights := []float64{1, 9, 3, 7, 5}
	a := (TopK{}).Sample(nil, 5, weights, 2)
	b := (TopK{}).Sample(nil, 5, weights, 2)
	if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("TopK nondeterministic: %v vs %v", a, b)
	}
	want := map[int]bool{1: true, 3: true}
	for _, i := range a {
		if !want[i] {
			t.Fatalf("TopK picked %v, want {1,3}", a)
		}
	}
}

func TestNodeRNGDeterministicAndDistinct(t *testing.T) {
	// Stream 0 is a node's sampling decision, 1+s a hub shard's pre-sample.
	a := NodeRNG(7, 100, 0).Int63()
	b := NodeRNG(7, 100, 0).Int63()
	if a != b {
		t.Fatal("NodeRNG not deterministic")
	}
	seen := map[int64]string{a: "(7,100,0)"}
	for _, k := range [][3]int64{{7, 100, 1}, {7, 100, 2}, {7, 101, 0}, {7, 101, 1}, {8, 100, 0}, {8, 100, 1}} {
		v := NodeRNG(k[0], k[1], int(k[2])).Int63()
		if prev, dup := seen[v]; dup {
			t.Fatalf("NodeRNG collision across (seed,node,stream): %v and %s", k, prev)
		}
		seen[v] = fmt.Sprint(k)
	}
}

func TestReservoirUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 20)
	for trial := 0; trial < 3000; trial++ {
		r := NewReservoir(5, rng)
		for i := 0; i < 20; i++ {
			r.Offer([]byte{byte(i)})
		}
		if r.Seen() != 20 || len(r.Items) != 5 {
			t.Fatalf("seen=%d len=%d", r.Seen(), len(r.Items))
		}
		for _, it := range r.Items {
			counts[it[0]]++
		}
	}
	// Each item expected 750 times.
	for i, c := range counts {
		if c < 580 || c > 920 {
			t.Fatalf("item %d kept %d times, expected ~750", i, c)
		}
	}
}

// Property: all strategies return valid subsets for random shapes.
func TestStrategySubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		k := rng.Intn(35)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() + 0.001
		}
		for _, s := range []Strategy{Uniform{}, Weighted{}, TopK{}} {
			idx := s.Sample(rng, n, w, k)
			want := k
			if n < k {
				want = n
			}
			if len(idx) != want {
				return false
			}
			seen := map[int]bool{}
			for _, i := range idx {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
