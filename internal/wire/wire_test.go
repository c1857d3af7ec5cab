package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// appendBytes appends a length-prefixed byte slice.
func appendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		r := NewReader(b)
		if got := r.Varint(); got != v || r.Err() != nil {
			t.Fatalf("varint %d -> %d err=%v", v, got, r.Err())
		}
	}
}

func TestUvarintAndFloats(t *testing.T) {
	b := AppendUvarint(nil, 12345)
	b = AppendFloat64(b, math.Pi)
	b = AppendFloat64s(b, []float64{1.5, -2.5, math.Inf(1)})
	r := NewReader(b)
	if r.Uvarint() != 12345 {
		t.Fatal("uvarint")
	}
	if r.Float64() != math.Pi {
		t.Fatal("float64")
	}
	fs := r.Float64s()
	if len(fs) != 3 || fs[1] != -2.5 || !math.IsInf(fs[2], 1) {
		t.Fatalf("float64s: %v", fs)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestBytesAndString(t *testing.T) {
	b := appendBytes(nil, []byte{1, 2, 3})
	b = AppendString(b, "hello")
	r := NewReader(b)
	if got := r.Bytes(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("bytes: %v", got)
	}
	if r.String() != "hello" {
		t.Fatal("string")
	}
}

func TestTruncatedReads(t *testing.T) {
	b := AppendFloat64(nil, 1)
	r := NewReader(b[:4])
	_ = r.Float64()
	if r.Err() != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
	// Errors stick.
	_ = r.Uvarint()
	if r.Err() != ErrTruncated {
		t.Fatal("error did not stick")
	}
	// Length prefix exceeding buffer.
	r2 := NewReader(AppendUvarint(nil, 100))
	if r2.Bytes() != nil || r2.Err() != ErrTruncated {
		t.Fatal("oversized length accepted")
	}
	// Float64s with oversized count must not allocate/crash.
	r3 := NewReader(AppendUvarint(nil, 1<<40))
	if r3.Float64s() != nil || r3.Err() != ErrTruncated {
		t.Fatal("oversized float64s accepted")
	}
	// A padded varint (0 spelled in two bytes) would not re-encode alike.
	if r4 := NewReader([]byte{0x80, 0x00}); r4.Uvarint() != 0 || r4.Err() == nil {
		t.Fatal("padded varint accepted")
	}
}

func randomSubgraph(rng *rand.Rand) *Subgraph {
	sg := &Subgraph{Target: rng.Int63n(1000)}
	n := rng.Intn(6) + 1
	for i := 0; i < n; i++ {
		feat := make([]float64, rng.Intn(4))
		for j := range feat {
			feat[j] = rng.NormFloat64()
		}
		sg.Nodes = append(sg.Nodes, SGNode{ID: int64(i * 7), Feat: feat, Deg: rng.Float64() * 10})
	}
	e := rng.Intn(8)
	for i := 0; i < e; i++ {
		var ef []float64
		for j := 0; j < rng.Intn(3); j++ {
			ef = append(ef, rng.NormFloat64())
		}
		sg.Edges = append(sg.Edges, SGEdge{
			Src: int64(rng.Intn(n) * 7), Dst: int64(rng.Intn(n) * 7),
			Weight: rng.Float64(), Feat: ef,
		})
	}
	return sg
}

func TestSubgraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sg := randomSubgraph(rng)
		b := EncodeSubgraph(nil, sg)
		got, err := DecodeSubgraph(NewReader(b))
		if err != nil {
			return false
		}
		if got.Target != sg.Target || len(got.Nodes) != len(sg.Nodes) || len(got.Edges) != len(sg.Edges) {
			return false
		}
		for i, n := range sg.Nodes {
			if got.Nodes[i].ID != n.ID || got.Nodes[i].Deg != n.Deg || len(got.Nodes[i].Feat) != len(n.Feat) {
				return false
			}
			for j, v := range n.Feat {
				if got.Nodes[i].Feat[j] != v {
					return false
				}
			}
		}
		for i, e := range sg.Edges {
			g := got.Edges[i]
			if g.Src != e.Src || g.Dst != e.Dst || g.Weight != e.Weight || len(g.Feat) != len(e.Feat) {
				return false
			}
			for j, v := range e.Feat {
				if g.Feat[j] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphMerge(t *testing.T) {
	a := &Subgraph{
		Target: 1,
		Nodes:  []SGNode{{ID: 1}, {ID: 2}},
		Edges:  []SGEdge{{Src: 2, Dst: 1, Weight: 1}},
	}
	b := &Subgraph{
		Target: 2,
		Nodes:  []SGNode{{ID: 2}, {ID: 3}},
		Edges:  []SGEdge{{Src: 2, Dst: 1, Weight: 1}, {Src: 3, Dst: 2, Weight: 1}},
	}
	sn, se := a.NewSeenSets()
	a.MergeInto(b, sn, se)
	if len(a.Nodes) != 3 {
		t.Fatalf("nodes after merge: %d", len(a.Nodes))
	}
	if len(a.Edges) != 2 {
		t.Fatalf("edges after merge: %d", len(a.Edges))
	}
	if a.Target != 1 {
		t.Fatal("merge changed target")
	}
}

func TestTrainRecordRoundTrip(t *testing.T) {
	rec := &TrainRecord{
		TargetID: 42,
		Label:    3,
		LabelVec: []float64{0, 1, 1},
		SG: &Subgraph{
			Target: 42,
			Nodes:  []SGNode{{ID: 42, Feat: []float64{1, 2}}},
		},
	}
	got, err := DecodeTrainRecord(EncodeTrainRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetID != 42 || got.Label != 3 || got.LabelVec[2] != 1 || got.SG.Nodes[0].Feat[1] != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEmbeddingRoundTrip(t *testing.T) {
	e := &Embedding{ID: -7, H: []float64{0.25, -1}, Deg: 3}
	b := EncodeEmbedding(nil, e)
	got, err := DecodeEmbedding(NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != -7 || got.H[1] != -1 || got.Deg != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeSubgraphTruncated(t *testing.T) {
	sg := &Subgraph{Target: 1, Nodes: []SGNode{{ID: 1, Feat: []float64{1, 2, 3}}}}
	b := EncodeSubgraph(nil, sg)
	if _, err := DecodeSubgraph(NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestLinkRecordRoundTrip(t *testing.T) {
	rec := &LinkRecord{
		Src:   -3,
		Dst:   99,
		Label: 1,
		SG: &Subgraph{
			Target: -3,
			Nodes:  []SGNode{{ID: -3, Feat: []float64{1, 2}, Deg: 4}, {ID: 99, Feat: []float64{3}}},
			Edges:  []SGEdge{{Src: 99, Dst: -3, Weight: 2.5}},
		},
	}
	got, err := DecodeLinkRecord(EncodeLinkRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != -3 || got.Dst != 99 || got.Label != 1 {
		t.Fatalf("round trip pair: %+v", got)
	}
	if len(got.SG.Nodes) != 2 || got.SG.Nodes[0].Deg != 4 || got.SG.Edges[0].Weight != 2.5 {
		t.Fatalf("round trip subgraph: %+v", got.SG)
	}
}

func TestDecodeLinkRecordTruncated(t *testing.T) {
	rec := &LinkRecord{Src: 1, Dst: 2, Label: 0, SG: &Subgraph{Target: 1, Nodes: []SGNode{{ID: 1, Feat: []float64{1}}}}}
	b := EncodeLinkRecord(rec)
	if _, err := DecodeLinkRecord(b[:len(b)-3]); err == nil {
		t.Fatal("expected truncation error")
	}
}
