package graph

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// FuzzMutationJSON feeds arbitrary bytes to the decoder behind POST /update
// and GET /mutations (both wire forms: feat and feat_q8/feat_scale/
// feat_zero). Whatever decodes must hold only finite numbers, re-encode in
// the float form and decode back to itself, and re-encode in the q8 form —
// which falls back to the float form when the affine pair cannot be
// represented — to the same mutation with a finite payload of the same
// length.
func FuzzMutationJSON(f *testing.F) {
	seeds := []Mutation{
		AddNode(3, []float64{1, 2}),
		AddEdge(1, 2, 2.5),
		RemoveEdge(1, 2),
		UpdateNodeFeat(3, []float64{4}),
		AddNode(0, []float64{-1.5, 0, 2.25, 1e-3}),
		UpdateNodeFeat(9, []float64{1000, -1000, 3.5, 0.125}),
		UpdateNodeFeat(1, []float64{5, 5, 5, 5}),
		UpdateNodeFeat(2, []float64{1e300, -1e300}),
		UpdateNodeFeat(2, []float64{1e-50, 2e-50}),
		{Op: OpAddEdge, Src: 4, Dst: 5, Weight: 1, Feat: []float64{0.5}},
	}
	for _, m := range seeds {
		for _, v := range []any{m, q8Mutation(m)} {
			b, err := json.Marshal(v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"op":"nope"}`))
	f.Add([]byte(`{"op":"update_feat","id":1,"feat_q8":"gH8A","feat_scale":3e38,"feat_zero":-3e38}`))
	f.Add([]byte(`{"op":"update_feat","id":1,"feat_q8":"gH8A","feat_scale":1e39}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Mutation
		if json.Unmarshal(data, &m) != nil || m.Op == 0 { // null decodes to the zero Mutation, which Apply rejects
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(m.Weight) || slices.ContainsFunc(m.Feat, func(v float64) bool { return !finite(v) }) {
			t.Fatalf("decoded a non-finite number: %+v", m)
		}
		same := func(got Mutation) bool {
			return got.Op == m.Op && got.ID == m.ID && got.Src == m.Src && got.Dst == m.Dst &&
				got.Weight == m.Weight && len(got.Feat) == len(m.Feat)
		}

		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", m, err)
		}
		var back Mutation
		if err := json.Unmarshal(b, &back); err != nil || !same(back) || !slices.Equal(back.Feat, m.Feat) {
			t.Fatalf("float form does not round-trip: %+v -> %s -> %+v (%v)", m, b, back, err)
		}

		b, err = json.Marshal(q8Mutation(m))
		if err != nil {
			t.Fatalf("q8 re-encode %+v: %v", m, err)
		}
		if err := json.Unmarshal(b, &back); err != nil || !same(back) ||
			slices.ContainsFunc(back.Feat, func(v float64) bool { return !finite(v) }) {
			t.Fatalf("q8 form does not round-trip: %+v -> %s -> %+v (%v)", m, b, back, err)
		}
	})
}
