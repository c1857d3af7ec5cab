package sampling

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

var strategies = []Strategy{Uniform{}, Weighted{}, TopK{}}

// keep is the pipeline's decision for n candidate in-edges of dst, candidate
// i coming from source i with weight w[i].
func keep(s Strategy, seed, dst int64, w []float64, k int) []int {
	prio := make([]float64, len(w))
	for i := range w {
		prio[i] = s.Priority(EdgeU(seed, dst, int64(i)), w[i])
	}
	return Top(prio, k)
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
	for _, s := range strategies {
		for _, k := range []int{0, 1, 10, 50, 100} {
			checkValid(t, keep(s, 1, 7, weights, k), 50, k)
		}
	}
	for _, k := range []int{0, 1, 10, 50, 100} {
		checkValid(t, Weighted{}.Sample(rng, 50, weights, k), 50, k)
	}
}

// TestUniformIsRoughlyUniform: over many destinations, every source is kept
// about equally often — the edge keys are uniform.
func TestUniformIsRoughlyUniform(t *testing.T) {
	counts := make([]int, 10)
	for dst := int64(0); dst < 5000; dst++ {
		for _, i := range keep(Uniform{}, 2, dst, make([]float64, 10), 3) {
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
	weights := []float64{100, 1, 1, 1, 1}
	rng := rand.New(rand.NewSource(3))
	keyed, drawn := 0, 0
	for trial := int64(0); trial < 1000; trial++ {
		if keep(Weighted{}, 3, trial, weights, 1)[0] == 0 {
			keyed++
		}
		if (Weighted{}).Sample(rng, 5, weights, 1)[0] == 0 {
			drawn++
		}
	}
	if keyed < 900 || drawn < 900 {
		t.Fatalf("heavy edge chosen only %d/1000 (edge keys) and %d/1000 (rng keys) times", keyed, drawn)
	}
}

func TestTopKDeterministic(t *testing.T) {
	weights := []float64{1, 9, 3, 7, 5}
	a := keep(TopK{}, 1, 1, weights, 2)
	b := keep(TopK{}, 2, 9, weights, 2)
	if fmt.Sprint(a) != "[1 3]" || fmt.Sprint(b) != "[1 3]" {
		t.Fatalf("TopK picked %v and %v, want [1 3]", a, b)
	}
	// Ties go to the lower index.
	if got := keep(TopK{}, 1, 1, []float64{2, 5, 2, 5, 2}, 3); fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("TopK tie-break picked %v, want [0 1 3]", got)
	}
}

// TestEdgeUDeterministicAndDistinct: the key is a pure function of (seed,
// dst, src), inside (0,1), and no argument can be swapped for another.
func TestEdgeUDeterministicAndDistinct(t *testing.T) {
	if EdgeU(7, 100, 3) != EdgeU(7, 100, 3) {
		t.Fatal("EdgeU not deterministic")
	}
	seen := map[float64]string{}
	for _, k := range [][3]int64{{7, 100, 3}, {7, 3, 100}, {100, 7, 3}, {3, 100, 7}, {7, 101, 3}, {8, 100, 3}, {0, 0, 0}, {-1, -1, -1}} {
		u := EdgeU(k[0], k[1], k[2])
		if !(u > 0 && u < 1) {
			t.Fatalf("EdgeU%v = %v, outside (0,1)", k, u)
		}
		if prev, dup := seen[u]; dup {
			t.Fatalf("EdgeU collision across (seed,dst,src): %v and %s", k, prev)
		}
		seen[u] = fmt.Sprint(k)
	}
}

// TestKeyedDrawsPinned pins EdgeU to the splitmix fold it has used since
// sampled GraphFeatures became keyed, so routing it through U moves no
// sampled output, and checks that Perm is a permutation of its key alone,
// with each item about equally likely in every position.
func TestKeyedDrawsPinned(t *testing.T) {
	for _, k := range [][3]int64{{1, 2, 3}, {-7, 0, 1 << 40}, {0, 0, 0}} {
		h := mix(uint64(k[0]) ^ mix(uint64(k[1])^mix(uint64(k[2]))))
		if got, want := EdgeU(k[0], k[1], k[2]), (float64(h>>12)+0.5)/(1<<52); got != want {
			t.Fatalf("EdgeU%v = %v, want %v", k, got, want)
		}
	}
	const n, trials = 5, 20000
	var seen [n][n]int
	for key := uint64(0); key < trials; key++ {
		p := Perm(key, n)
		if !slices.Equal(p, Perm(key, n)) {
			t.Fatalf("Perm(%d) not deterministic", key)
		}
		for i, v := range slices.Sorted(slices.Values(p)) {
			if v != i {
				t.Fatalf("Perm(%d) = %v, not a permutation", key, p)
			}
		}
		for pos, v := range p {
			seen[v][pos]++
		}
	}
	for v := range seen {
		for pos, c := range seen[v] {
			if f := float64(c) / trials; f < 0.18 || f > 0.22 {
				t.Fatalf("item %d at position %d in %.3f of permutations, want ~0.2", v, pos, f)
			}
		}
	}
	if len(Perm(1, 0)) != 0 || !slices.Equal(Perm(1, 1), []int{0}) {
		t.Fatal("Perm of 0 or 1 items")
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
		for _, s := range strategies {
			idx := keep(s, seed, 1, w, k)
			want := min(k, n)
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

// TestTopOfPartsIsTopOfWhole is what makes hub re-indexing answer-neutral:
// split a node's candidate in-edges by source into parts, keep the top k of
// each part, and the top k of what survives is the top k of the whole.
// Candidates are in canonical (src, weight) order, as the pipeline ranks
// them, with parallel edges and tied weights.
func TestTopOfPartsIsTopOfWhole(t *testing.T) {
	type cand struct {
		src int64
		w   float64
	}
	decide := func(s Strategy, seed int64, cs []cand, k int) []cand {
		slices.SortStableFunc(cs, func(a, b cand) int {
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.w, b.w))
		})
		prio := make([]float64, len(cs))
		for i, c := range cs {
			prio[i] = s.Priority(EdgeU(seed, 42, c.src), c.w)
		}
		var out []cand
		for _, i := range Top(prio, k) {
			out = append(out, cs[i])
		}
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, parts := 1+rng.Intn(60), 1+rng.Intn(12), 1+rng.Intn(6)
		cs := make([]cand, n)
		for i := range cs {
			cs[i] = cand{src: int64(rng.Intn(n)), w: float64(1 + rng.Intn(4))}
		}
		part := map[int64]int{}
		for _, c := range cs {
			if _, ok := part[c.src]; !ok {
				part[c.src] = rng.Intn(parts)
			}
		}
		for _, s := range strategies {
			split := make([][]cand, parts)
			for _, c := range cs {
				split[part[c.src]] = append(split[part[c.src]], c)
			}
			var survivors []cand
			for _, p := range split {
				survivors = append(survivors, decide(s, seed, p, k)...)
			}
			whole := decide(s, seed, slices.Clone(cs), k)
			if !slices.Equal(decide(s, seed, survivors, k), whole) {
				t.Logf("%s seed %d: parts disagree with the whole", s.Name(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
