package gnn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// sameBits reports whether two matrices hold bit-identical values.
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func mustMarshalModel(t testing.TB, m *Model) []byte {
	t.Helper()
	b, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestModelFileCarriesEveryConfigField: each Config field holds a non-zero
// value no other field holds, and the whole Config survives the file. A
// field added to Config fails here until the test config sets it, and then
// until the codec carries it.
func TestModelFileCarriesEveryConfigField(t *testing.T) {
	cfg := Config{
		Kind: KindGAT, InDim: 5, Hidden: 6, Classes: 7, Layers: 3, Heads: 2,
		Act: nn.ActSigmoid, Dropout: 0.25, Seed: 9, EdgeDim: 8, EdgeHead: EdgeHeadMLP,
	}
	v := reflect.ValueOf(cfg)
	seen := map[string]string{}
	for i := 0; i < v.NumField(); i++ {
		name, val := v.Type().Field(i).Name, fmt.Sprint(v.Field(i).Interface())
		if v.Field(i).IsZero() {
			t.Fatalf("Config.%s is zero in the test config: give it a distinct non-zero value", name)
		}
		if other, dup := seen[val]; dup {
			t.Fatalf("Config.%s and Config.%s both hold %s: give each a distinct value", name, other, val)
		}
		seen[val] = name
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := UnmarshalModel(mustMarshalModel(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Cfg, cfg) {
		t.Fatalf("Config changed in the model file:\n got %+v\nwant %+v", m2.Cfg, cfg)
	}
}

// TestEdgeHeadSetAfterConstructionRoundTrips is the benchmark's serving
// model: a node model given Cfg.EdgeHead = "dot" after construction, so it
// has no EdgeScorer until it is saved and loaded. The file must load, its
// slices must compute what the original's do, and its link logits must be
// the dot products of the original's embeddings.
func TestEdgeHeadSetAfterConstructionRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := testBatch(rng, 12, 5, 12, 0.25)
	m := newTestModel(t, KindSAGE, 2, 5, 4, 1, 1)
	m.Cfg.EdgeHead = EdgeHeadDot
	m2, err := UnmarshalModel(mustMarshalModel(t, m))
	if err != nil {
		t.Fatal(err)
	}
	want, got := runSliced(t, m, b), runSliced(t, m2, b)
	if !sameBits(want, got) {
		t.Fatal("the loaded model's slices compute different scores")
	}
	src, dst := []int{0, 3, 7}, []int{5, 3, 11}
	h := m.Forward(b, m.Prepare(b, RunOptions{}), RunOptions{}).H
	links := m2.InferEdges(b, src, dst, RunOptions{})
	for p := range src {
		if want := dot(h.Row(src[p]), h.Row(dst[p])); math.Float64bits(links.Data[p]) != math.Float64bits(want) {
			t.Fatalf("pair %d: link logit %v, the original's embeddings give %v", p, links.Data[p], want)
		}
	}
}

func TestUnmarshalModelRejectsGobFiles(t *testing.T) {
	var buf bytes.Buffer
	m := newTestModel(t, KindGCN, 2, 3, 4, 2, 1)
	if err := gob.NewEncoder(&buf).Encode(struct{ Cfg Config }{m.Cfg}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "gob model files are retired") {
		t.Fatalf("loading a gob file: %v, want the retired-format error", err)
	}
}

// fuzzSeedModels are small models of every layer kind and edge head.
func fuzzSeedModels(t testing.TB) []*Model {
	var out []*Model
	for _, cfg := range []Config{
		{Kind: KindGCN, InDim: 3, Hidden: 2, Classes: 1},
		{Kind: KindSAGE, InDim: 2, Hidden: 3, Classes: 2, Layers: 1, EdgeHead: EdgeHeadDot},
		{Kind: KindGAT, InDim: 3, Hidden: 4, Classes: 2, Heads: 2, EdgeDim: 2},
		{Kind: KindGIN, InDim: 2, Hidden: 2, Classes: 1, EdgeHead: EdgeHeadBilinear},
		{Kind: KindGCN, InDim: 2, Hidden: 2, Classes: 1, Layers: 1, EdgeHead: EdgeHeadMLP},
	} {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// FuzzUnmarshalModel: the model-file reader never panics, allocates at
// most 64 bytes per input byte plus 1 MiB, and what it accepts marshals
// back to the same bytes. The CRC is rewritten before parsing so that
// mutations reach the parser instead of stopping at the checksum.
func FuzzUnmarshalModel(f *testing.F) {
	for _, m := range fuzzSeedModels(f) {
		b := mustMarshalModel(f, m)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	huge := fuzzSeedModels(f)[0]
	huge.Cfg.InDim, huge.Cfg.Hidden = 1<<40, 1<<40
	f.Add(mustMarshalModel(f, huge))
	f.Fuzz(func(t *testing.T, data []byte) {
		if end := len(data) - 4; end >= len(modelMagic) {
			data = binary.LittleEndian.AppendUint32(append([]byte(nil), data[:end]...), crc32.ChecksumIEEE(data[:end]))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := UnmarshalModel(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
			t.Fatalf("a %d-byte input allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if again := mustMarshalModel(t, m); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-marshal to %d different bytes", len(data), len(again))
		}
	})
}
