package gnn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"agl/internal/nn"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// A model file, in the wire package's encoding, is
//
//	"AGLMDL01"
//	Config: Kind, InDim, Hidden, Classes, Layers, Heads, Act, Dropout,
//	        Seed, EdgeDim, EdgeHead (strings length-prefixed, ints as
//	        zig-zag varints, Dropout as float64 bits)
//	parameter count, then per parameter of Params().List():
//	        name, rows, length-prefixed float64 weights
//	CRC-32 (IEEE, little endian) of every byte before it
//
// The Config alone determines the layers; the weights follow in the order
// NewModel creates them.
const modelMagic = "AGLMDL01"

// Save serializes the model (config + all weights) to w.
func (m *Model) Save(w io.Writer) error {
	b, err := MarshalModel(m)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// Load deserializes a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gnn: read model: %w", err)
	}
	return UnmarshalModel(b)
}

// MarshalModel serializes a model to bytes.
func MarshalModel(m *Model) ([]byte, error) {
	c := m.Cfg
	b := wire.AppendString([]byte(modelMagic), c.Kind)
	for _, v := range []int{c.InDim, c.Hidden, c.Classes, c.Layers, c.Heads} {
		b = wire.AppendVarint(b, int64(v))
	}
	b = wire.AppendVarint(b, int64(c.Act))
	b = wire.AppendFloat64(b, c.Dropout)
	b = wire.AppendVarint(b, c.Seed)
	b = wire.AppendVarint(b, int64(c.EdgeDim))
	b = wire.AppendString(b, c.EdgeHead)
	ps := m.Params().List()
	b = wire.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = wire.AppendString(b, p.Name)
		b = wire.AppendUvarint(b, uint64(p.W.Rows))
		b = wire.AppendFloat64s(b, p.W.Data)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// fileParam is one parameter as a model file carries it.
type fileParam struct {
	name string
	rows uint64
	data []float64
}

// UnmarshalModel deserializes a model from bytes.
func UnmarshalModel(b []byte) (*Model, error) {
	if !bytes.HasPrefix(b, []byte(modelMagic)) {
		return nil, errors.New("gnn: not an " + modelMagic +
			" model file (gob model files are retired: retrain with graphtrainer)")
	}
	end := len(b) - 4
	if end < len(modelMagic) {
		return nil, fmt.Errorf("gnn: model file truncated at %d bytes", len(b))
	}
	if crc32.ChecksumIEEE(b[:end]) != binary.LittleEndian.Uint32(b[end:]) {
		return nil, errors.New("gnn: model file checksum mismatch")
	}
	r := wire.NewReader(b[len(modelMagic):end])
	var c Config
	c.Kind = r.String()
	for _, f := range []*int{&c.InDim, &c.Hidden, &c.Classes, &c.Layers, &c.Heads} {
		*f = int(r.Varint())
	}
	c.Act = nn.ActKind(r.Varint())
	c.Dropout = r.Float64()
	c.Seed = r.Varint()
	c.EdgeDim = int(r.Varint())
	c.EdgeHead = r.String()
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("gnn: model file claims %d parameters in %d bytes", n, r.Remaining())
	}
	var params []fileParam
	values := 0
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		p := fileParam{name: r.String(), rows: r.Uvarint(), data: r.Float64s()}
		params = append(params, p)
		values += len(p.data)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gnn: model file: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("gnn: %d trailing bytes after the model", r.Remaining())
	}
	// Only a Config in the defaulted form NewModel stores re-marshals to
	// the same bytes, and only one whose weights the file carries may
	// allocate.
	if c != c.withDefaults() {
		return nil, fmt.Errorf("gnn: model file config %+v is not in NewModel's defaulted form", c)
	}
	if need := c.numValues(); need != float64(values) {
		return nil, fmt.Errorf("gnn: model config %+v needs %g weights, the file carries %d", c, need, values)
	}
	m, err := NewModel(c)
	if err != nil {
		return nil, err
	}
	ps := m.Params().List()
	if len(ps) != len(params) {
		return nil, fmt.Errorf("gnn: parameter count mismatch %d vs %d", len(ps), len(params))
	}
	for i, p := range ps {
		fp := params[i]
		if fp.name != p.Name || fp.rows != uint64(p.W.Rows) || len(fp.data) != len(p.W.Data) {
			return nil, fmt.Errorf("gnn: parameter %d does not match %q (%dx%d)", i, p.Name, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, fp.data)
	}
	return m, nil
}

// numValues is how many weights NewModel(c) allocates, computed without
// allocating. It is a float64 so that no dimensions a file claims can
// overflow it; every count a file can carry is exact.
func (c Config) numValues() float64 {
	h, heads, ed := float64(c.Hidden), float64(c.Heads), float64(c.EdgeDim)
	layer := func(in float64) float64 {
		switch c.Kind {
		case KindSAGE:
			return 2*in*h + h
		case KindGAT:
			return in*h + 3*h + heads*ed
		case KindGIN:
			return in*h + h*h + 2*h + 1
		}
		return in*h + h
	}
	n := layer(float64(c.InDim)) + float64(c.Layers-1)*layer(h) + h*float64(c.Classes) + float64(c.Classes)
	switch c.EdgeHead {
	case EdgeHeadBilinear:
		n += h * h
	case EdgeHeadMLP:
		n += 2*h*h + 2*h + 1
	}
	return n
}

// Slice is one segment of a hierarchically segmented model (paper §3.4):
// slices 1..K hold one GNN layer each; slice K+1 holds the prediction head.
type Slice struct {
	Index int   // 1-based; K+1 is the prediction slice
	Layer Layer // nil for the prediction slice
	Head  *nn.Dense
	Cfg   Config
}

// IsPrediction reports whether this is the final (head) slice.
func (s *Slice) IsPrediction() bool { return s.Head != nil }

// Forward runs a layer slice over the batch b with dropout off: the
// normalization Model.Prepare applies, then the layer's Forward with
// Rows{Out: out}, whose result it returns (valid on the out rows; nil out
// means every row). With b.Deg set, a row's output depends only on the row,
// its in-edges in b's column order and their source rows, never on which
// other rows b holds. The layer caches its activations, so one slice serves
// one caller at a time.
func (s *Slice) Forward(ws *tensor.Workspace, b *BatchGraph, out []int) *tensor.Matrix {
	ag := s.Cfg.aggregator(ws, b, s.Cfg.normalize(ws, b), 1)
	return s.Layer.Forward(ws, ag, Rows{Out: out}, b.X)
}

// Fork returns a slice over s's weights whose layer caches are its own, so
// concurrent callers of one segmented layer slice (GraphInfer's reduce
// tasks) each run a fork of it instead of a copy of the model.
func (s *Slice) Fork() *Slice {
	cp := *s
	switch l := s.Layer.(type) {
	case nil:
	case *GCNLayer:
		c := GCNLayer{W: l.W, B: l.B, Act: l.Act}
		cp.Layer = &c
	case *SAGELayer:
		c := SAGELayer{WSelf: l.WSelf, WNeigh: l.WNeigh, B: l.B, Act: l.Act, in: l.in}
		cp.Layer = &c
	case *GINLayer:
		c := GINLayer{W1: l.W1, B1: l.B1, W2: l.W2, B2: l.B2, Eps: l.Eps, Act: l.Act, in: l.in}
		cp.Layer = &c
	case *GATLayer:
		c := GATLayer{Heads: l.Heads, WH: l.WH, ASrc: l.ASrc, ADst: l.ADst, AEdge: l.AEdge, B: l.B,
			Act: l.Act, LeakySlope: l.LeakySlope, in: l.in, out: l.out, headDim: l.headDim}
		cp.Layer = &c
	default:
		panic(fmt.Sprintf("gnn: Fork of unknown layer %T", l))
	}
	return &cp
}

// Segment splits the model into K+1 slices — the paper's hierarchical
// model segmentation. The slices point into a private copy of the model's
// weights, so later changes to the model do not reach them; concurrent
// callers of a layer slice each run a Fork of it.
func (m *Model) Segment() ([]*Slice, error) {
	cp, err := NewModel(m.Cfg)
	if err != nil {
		return nil, err
	}
	if err := cp.Params().CopyWeightsFrom(m.Params()); err != nil {
		return nil, err
	}
	out := make([]*Slice, 0, len(cp.Layers)+1)
	for i, l := range cp.Layers {
		out = append(out, &Slice{Index: i + 1, Layer: l, Cfg: m.Cfg})
	}
	return append(out, &Slice{Index: len(cp.Layers) + 1, Head: cp.Head, Cfg: m.Cfg}), nil
}
