package wire

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// overflowCounts are length prefixes whose byte size wraps when computed
// with a multiply or an int conversion: 1<<61 float64s is 1<<64 bytes, and
// 1<<63 is a negative int.
var overflowCounts = []uint64{1 << 61, 1<<61 + 1, 1 << 63, 1<<64 - 1}

// TestOverflowingCountsAreTruncation: a count no buffer could hold must be
// ErrTruncated from every length-prefixed reader and from the record
// decoders built on them, not a wrapped bounds check followed by a make.
func TestOverflowingCountsAreTruncation(t *testing.T) {
	for _, n := range overflowCounts {
		prefix := AppendUvarint(nil, n)
		if r := NewReader(prefix); r.Float64s() != nil || r.Err() != ErrTruncated {
			t.Fatalf("Float64s accepted count %d: %v", n, r.Err())
		}
		if r := NewReader(prefix); r.Bytes() != nil || r.Err() != ErrTruncated {
			t.Fatalf("Bytes accepted count %d: %v", n, r.Err())
		}
		// TargetID, Label, then the count as the LabelVec length.
		if _, err := DecodeTrainRecord(append([]byte{2, 0}, prefix...)); err == nil {
			t.Fatalf("DecodeTrainRecord accepted LabelVec length %d", n)
		}
		// Src, Dst, Label, subgraph target, one node: id, degree, then the
		// count as the feature length.
		link := append([]byte{2, 4, 2, 2, 1, 2}, AppendFloat64(nil, 1)...)
		if _, err := DecodeLinkRecord(append(link, prefix...)); err == nil {
			t.Fatalf("DecodeLinkRecord accepted feature length %d", n)
		}
	}
}

// describable is the fewest bytes any encoding of sg occupies: a node is at
// least an id, a degree and a feature count, an edge two ids, a weight and a
// feature count, and every float is eight bytes. Decoding must never build
// more than its input could describe.
func describable(sg *Subgraph) int {
	size := 10*len(sg.Nodes) + 11*len(sg.Edges)
	for _, n := range sg.Nodes {
		size += 8 * len(n.Feat)
	}
	for _, e := range sg.Edges {
		size += 8 * len(e.Feat)
	}
	return size
}

func fuzzSeeds(f *testing.F, encode func(sg *Subgraph) []byte) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		enc := encode(randomSubgraph(rng))
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, n := range overflowCounts {
		f.Add(append([]byte{2, 0}, AppendUvarint(nil, n)...))
		f.Add(append([]byte{2, 4, 2, 2}, AppendUvarint(nil, n)...))
	}
}

// FuzzDecodeTrainRecord: the decoder never panics, never builds more than
// the input could describe, and whatever it accepts re-encodes to a
// canonical form that decodes back to itself.
func FuzzDecodeTrainRecord(f *testing.F) {
	fuzzSeeds(f, func(sg *Subgraph) []byte {
		return EncodeTrainRecord(&TrainRecord{TargetID: sg.Target, Label: 1, LabelVec: []float64{0, 1}, SG: sg})
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeTrainRecord(data)
		if err != nil {
			return
		}
		if got := 8*len(rec.LabelVec) + describable(rec.SG); got > len(data) {
			t.Fatalf("decoded %d bytes' worth from %d input bytes", got, len(data))
		}
		enc := EncodeTrainRecord(rec)
		if len(enc) > len(data) {
			t.Fatalf("canonical form is %d bytes, input only %d", len(enc), len(data))
		}
		again, err := DecodeTrainRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(EncodeTrainRecord(again), enc) {
			t.Fatal("re-encode does not round-trip")
		}
	})
}

// FuzzDecodeLinkRecord holds DecodeLinkRecord to the same three invariants.
func FuzzDecodeLinkRecord(f *testing.F) {
	fuzzSeeds(f, func(sg *Subgraph) []byte {
		return EncodeLinkRecord(&LinkRecord{Src: sg.Target, Dst: sg.Target + 7, Label: 1, SG: sg})
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeLinkRecord(data)
		if err != nil {
			return
		}
		if got := describable(rec.SG); got > len(data) {
			t.Fatalf("decoded %d bytes' worth from %d input bytes", got, len(data))
		}
		enc := EncodeLinkRecord(rec)
		if len(enc) > len(data) {
			t.Fatalf("canonical form is %d bytes, input only %d", len(enc), len(data))
		}
		again, err := DecodeLinkRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(EncodeLinkRecord(again), enc) {
			t.Fatal("re-encode does not round-trip")
		}
	})
}

// fuzzState holds one of the engine's state decoders to its contract: it
// never panics, allocates at most 64 bytes per input byte plus 1 MiB, and
// whatever it accepts re-encodes to exactly the bytes it consumed.
func fuzzState[T any](t *testing.T, data []byte, decode func(*Reader) (T, error), encode func([]byte, T) []byte) {
	r := NewReader(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decode(r)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
		t.Fatalf("a %d-byte input allocated %d bytes (limit %d)", len(data), got, limit)
	}
	if err != nil {
		return
	}
	if used, enc := data[:len(data)-r.Remaining()], encode(nil, v); !bytes.Equal(enc, used) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(used), len(enc))
	}
}

// FuzzDecodeSubgraph: GraphFlat's round state.
func FuzzDecodeSubgraph(f *testing.F) {
	fuzzSeeds(f, func(sg *Subgraph) []byte { return EncodeSubgraph(nil, sg) })
	f.Fuzz(func(t *testing.T, data []byte) { fuzzState(t, data, DecodeSubgraph, EncodeSubgraph) })
}

// FuzzDecodeEmbedding: GraphInfer's round state.
func FuzzDecodeEmbedding(f *testing.F) {
	f.Add(EncodeEmbedding(nil, &Embedding{ID: -3, H: []float64{0.5, -1, math.NaN()}, Deg: 2}))
	f.Add(append(EncodeEmbedding(nil, &Embedding{ID: 1 << 40}), 7))
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	for _, n := range overflowCounts {
		f.Add(append([]byte{2}, AppendUvarint(nil, n)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzState(t, data, DecodeEmbedding, EncodeEmbedding) })
}
