package graph

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestQuantizedFeedRoundTrip marshals a feed entry in the q8 form and
// decodes it through the ordinary Mutation decoder: feature payloads must
// come back within the affine error bound (scale/2 per component) and
// everything else bit-exact.
func TestQuantizedFeedRoundTrip(t *testing.T) {
	entries := []LogEntry{
		{Version: 7, Muts: []Mutation{
			AddNode(0, []float64{-1.5, 0, 2.25, 1e-3}),
			UpdateNodeFeat(9, []float64{1000, -1000, 3.5, 0.125}),
			AddEdge(0, 9, 2.5),
			RemoveEdge(3, 4),
		}},
		{Version: 8, Muts: []Mutation{
			UpdateNodeFeat(1, []float64{5, 5, 5, 5}), // constant row
		}},
	}
	blob, err := json.Marshal(QuantizeLog(entries))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"feat_q8"`) {
		t.Fatalf("q8 form did not pack features: %s", blob)
	}
	if strings.Contains(string(blob), `"feat":`) {
		t.Fatalf("q8 form leaked float payloads: %s", blob)
	}

	var got []LogEntry
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		ge := got[i]
		if ge.Version != e.Version || len(ge.Muts) != len(e.Muts) {
			t.Fatalf("entry %d: got version %d/%d muts, want %d/%d",
				i, ge.Version, len(ge.Muts), e.Version, len(e.Muts))
		}
		for j, m := range e.Muts {
			gm := ge.Muts[j]
			if gm.Op != m.Op || gm.ID != m.ID || gm.Src != m.Src || gm.Dst != m.Dst || gm.Weight != m.Weight {
				t.Fatalf("entry %d mut %d: metadata changed: got %+v want %+v", i, j, gm, m)
			}
			if len(gm.Feat) != len(m.Feat) {
				t.Fatalf("entry %d mut %d: feat dim %d, want %d", i, j, len(gm.Feat), len(m.Feat))
			}
			if len(m.Feat) == 0 {
				continue
			}
			low, high := m.Feat[0], m.Feat[0]
			for _, v := range m.Feat {
				low, high = math.Min(low, v), math.Max(high, v)
			}
			bound := (high-low)/255/2 + 1e-6
			if low == high {
				bound = math.Abs(low)/127/2 + 1e-6
			}
			for k := range m.Feat {
				if d := math.Abs(gm.Feat[k] - m.Feat[k]); d > bound {
					t.Fatalf("entry %d mut %d dim %d: error %g exceeds bound %g (got %g want %g)",
						i, j, k, d, bound, gm.Feat[k], m.Feat[k])
				}
			}
		}
	}
}

// TestQuantizedFeedNonFiniteFallback checks that a payload the quantizer
// cannot represent travels in the float form instead of failing the feed.
func TestQuantizedFeedNonFiniteFallback(t *testing.T) {
	entries := []LogEntry{{Version: 1, Muts: []Mutation{
		UpdateNodeFeat(2, []float64{1, math.Inf(1)}),
	}}}
	// The q8 encoder must punt to the float form rather than encode
	// garbage; encoding/json then rejects the Inf exactly as it does on the
	// plain feed — a loud error, not a silently corrupted payload.
	if _, err := json.Marshal(QuantizeLog(entries)); err == nil {
		t.Fatal("non-finite payload marshaled silently; want float-form rejection")
	}
}

// TestQuantizedFeedEmptyAndNilFeat: edge ops with no payload must not grow
// spurious q8 fields.
func TestQuantizedFeedEmptyAndNilFeat(t *testing.T) {
	entries := []LogEntry{{Version: 3, Muts: []Mutation{
		AddEdge(1, 2, 1),
		RemoveEdge(1, 2),
	}}}
	blob, err := json.Marshal(QuantizeLog(entries))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "feat") {
		t.Fatalf("payload-free ops grew feat fields: %s", blob)
	}
	var got []LogEntry
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got[0].Muts[0].Feat != nil || got[0].Muts[1].Feat != nil {
		t.Fatalf("payload-free ops decoded with features: %+v", got[0].Muts)
	}
}

// TestQuantizedFeedUnrepresentableRangeFallsBack: a finite payload whose
// affine pair does not fit a float32 (found by FuzzMutationJSON: the scale
// overflowed to +Inf and failed the whole feed response) travels in the
// float form, exactly.
func TestQuantizedFeedUnrepresentableRangeFallsBack(t *testing.T) {
	for _, feat := range [][]float64{{1e300, -1e300}, {1e-50, 2e-50}} {
		entries := []LogEntry{{Version: 1, Muts: []Mutation{UpdateNodeFeat(2, feat)}}}
		blob, err := json.Marshal(QuantizeLog(entries))
		if err != nil {
			t.Fatalf("%v: %v", feat, err)
		}
		if strings.Contains(string(blob), "feat_q8") {
			t.Fatalf("%v was quantized: %s", feat, blob)
		}
		var got []LogEntry
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatal(err)
		}
		if g := got[0].Muts[0].Feat; len(g) != 2 || g[0] != feat[0] || g[1] != feat[1] {
			t.Fatalf("%v came back as %v", feat, g)
		}
	}
}
