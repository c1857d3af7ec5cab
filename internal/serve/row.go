package serve

import (
	"fmt"

	"agl/internal/tensor"
)

// Codec identifies the packed layout of a stored embedding row. It is the
// descriptor half of the Store redesign: a Row carries its codec with it,
// so call sites that only ever need float64s decode through Floats, while
// codec-aware paths (the quantized dot-product scorer, the wire encoders)
// branch on Codec and work on the packed payload directly.
type Codec uint8

const (
	// CodecF64 is the full-precision layout: 8 bytes per dimension.
	CodecF64 Codec = iota
	// CodecQ8 is the int8 affine-quantized layout: 1 byte per dimension
	// plus a per-row float32 scale and zero-point. A stored q decodes to
	// (float64(q) - zero) * scale.
	CodecQ8
)

// String returns the codec's wire name.
func (c Codec) String() string {
	switch c {
	case CodecF64:
		return "f64"
	case CodecQ8:
		return "q8"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// Row is one embedding in its stored codec. Exactly one payload slice is
// populated: F64 for CodecF64 rows, Q8 (plus Scale/Zero) for CodecQ8 rows.
// A zero Row means "no row".
//
// Aliasing contract: a Row returned by a Store lookup or Range may alias
// backend memory (a heap slab, or mmap'd pages that become invalid after
// Close). Treat the payload as read-only and use Clone or FloatsCopy
// before retaining it past the lookup.
type Row struct {
	F64 []float64

	Q8    []int8
	Scale float32 // CodecQ8: dequantization scale, > 0 for a valid row
	Zero  float32 // CodecQ8: zero-point, in quantized units
}

// F64Row wraps a float64 vector as a full-precision Row. The slice is
// referenced, not copied.
func F64Row(v []float64) Row { return Row{F64: v} }

// Q8Row wraps a quantized payload as an int8 Row. The slice is referenced,
// not copied.
func Q8Row(q []int8, scale, zero float32) Row {
	return Row{Q8: q, Scale: scale, Zero: zero}
}

// Codec returns the row's layout. A zero Row reports CodecF64.
func (r Row) Codec() Codec {
	if r.Q8 != nil {
		return CodecQ8
	}
	return CodecF64
}

// Dim returns the row's dimensionality.
func (r Row) Dim() int {
	if r.Q8 != nil {
		return len(r.Q8)
	}
	return len(r.F64)
}

// IsZero reports whether the row carries no payload.
func (r Row) IsZero() bool { return r.F64 == nil && r.Q8 == nil }

// Floats returns the row decoded to float64s. For CodecF64 rows it returns
// the payload itself (a view — same aliasing contract as the Row); for
// CodecQ8 rows it dequantizes into buf (reused when its capacity suffices,
// allocated otherwise). Callers that retain the result must use FloatsCopy.
func (r Row) Floats(buf []float64) []float64 {
	if r.Q8 == nil {
		return r.F64
	}
	return tensor.Dequantize(buf, r.Q8, r.Scale, r.Zero)
}

// FloatsCopy returns the row decoded to float64s in freshly allocated
// memory the caller owns.
func (r Row) FloatsCopy() []float64 {
	if r.Q8 == nil {
		if r.F64 == nil {
			return nil
		}
		return append([]float64(nil), r.F64...)
	}
	return tensor.Dequantize(make([]float64, len(r.Q8)), r.Q8, r.Scale, r.Zero)
}

// Clone returns a deep copy of the row in its native codec.
func (r Row) Clone() Row {
	cp := r
	if r.F64 != nil {
		cp.F64 = append([]float64(nil), r.F64...)
	}
	if r.Q8 != nil {
		cp.Q8 = append([]int8(nil), r.Q8...)
	}
	return cp
}

// quantDot computes the dot product of two quantized rows without
// dequantizing either: expanding sum((qu-zu)*su * (qv-zv)*sv) gives three
// integer accumulators (exact in int64 — |q| <= 128, so d <= 2^48 dims
// before sum(qu*qv) could overflow) and one final float rescale.
func quantDot(u, v Row) float64 {
	var qq, su64, sv64 int64
	vq := v.Q8[:len(u.Q8)] // hoist the bounds check out of the loop
	for i, a := range u.Q8 {
		b := vq[i]
		qq += int64(a) * int64(b)
		su64 += int64(a)
		sv64 += int64(b)
	}
	zu, zv := float64(u.Zero), float64(v.Zero)
	d := float64(len(u.Q8))
	return float64(u.Scale) * float64(v.Scale) *
		(float64(qq) - zv*float64(su64) - zu*float64(sv64) + d*zu*zv)
}
