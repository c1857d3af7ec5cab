package tensor

import (
	"fmt"
	"math"
)

// Quantize encodes src into dst (len(dst) == len(src)) with per-vector
// affine int8 quantization: scale spans the vector's [min, max] across the
// 255 usable steps and zero maps min to -128, so a stored q decodes to
// (float64(q) - zero) * scale with absolute error at most scale/2. A byte
// dst holds each int8's two's complement. Both parameters are rounded to
// float32 before quantizing, so encode and decode see identical values. An
// empty src encodes as scale 1, zero 0.
//
// It fails on a non-finite value (NaN/Inf have no affine image and would
// poison the scale) and on a range whose scale or zero point a float32
// cannot hold: the scale underflows to 0 (a constant vector of magnitude
// below ~1e-43) or overflows (a span beyond ~8e40), or the zero point
// overflows. Such a vector would decode to NaN or Inf.
//
// It is the one int8 codec: the serving tier's q8 rows and the mutation
// feed's q8 payloads both use it.
func Quantize[Q int8 | byte](dst []Q, src []float64) (scale, zero float32, err error) {
	if len(dst) != len(src) {
		return 0, 0, fmt.Errorf("quantize: dst dim %d != src dim %d", len(dst), len(src))
	}
	if len(src) == 0 {
		return 1, 0, nil
	}
	low, high := math.Inf(1), math.Inf(-1)
	for i, v := range src {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("quantize: non-finite value %v at dim %d", v, i)
		}
		low, high = min(low, v), max(high, v)
	}
	var s64 float64
	switch {
	case low == high && low == 0:
		s64 = 1
	case low == high:
		s64 = math.Abs(low) / 127
	default:
		s64 = (high - low) / 255
	}
	scale = float32(s64)
	s64 = float64(scale) // quantize against the value decode will see
	zero = float32(-128 - low/s64)
	z64 := float64(zero)
	if s64 == 0 || math.IsInf(s64, 0) || math.IsInf(z64, 0) {
		return 0, 0, fmt.Errorf("quantize: range [%g, %g] has no float32 scale and zero point (scale %g, zero %g)",
			low, high, scale, zero)
	}
	for i, v := range src {
		dst[i] = Q(int8(max(-128, min(127, math.Round(v/s64+z64)))))
	}
	return scale, zero, nil
}

// Dequantize decodes q into dst (reused when capacity suffices, allocated
// otherwise) and returns the decoded slice.
func Dequantize[Q int8 | byte](dst []float64, q []Q, scale, zero float32) []float64 {
	if cap(dst) < len(q) {
		dst = make([]float64, len(q))
	}
	dst = dst[:len(q)]
	s, z := float64(scale), float64(zero)
	for i, v := range q {
		dst[i] = (float64(int8(v)) - z) * s
	}
	return dst
}
