package tensor

import (
	"math"
	"strings"
	"testing"
)

// TestQuantizeRefusesWhatWouldDecodeToNaN: a non-finite value, or a range
// whose scale underflows float32 to 0 or overflows it to +Inf, has no
// affine int8 image; Quantize must say so instead of returning parameters
// that decode to NaN or Inf.
func TestQuantizeRefusesWhatWouldDecodeToNaN(t *testing.T) {
	for _, tc := range []struct {
		src  []float64
		want string
	}{
		{[]float64{0, math.NaN()}, "non-finite"},
		{[]float64{math.Inf(-1), 1}, "non-finite"},
		{[]float64{0, 1e-44}, "no float32 scale"},
		{[]float64{1e-44, 1e-44}, "no float32 scale"},
		{[]float64{0, 1e300}, "no float32 scale"},
	} {
		_, _, err := Quantize(make([]int8, len(tc.src)), tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Quantize(%v): err = %v, want one mentioning %q", tc.src, err, tc.want)
		}
	}
	if _, _, err := Quantize(make([]int8, 1), []float64{1, 2}); err == nil {
		t.Error("Quantize accepted a dst of the wrong length")
	}
}

// TestQuantizeByteMatchesInt8: the byte form is the int8 form's two's
// complement, with the same parameters, and both decode to the same values
// within half a step.
func TestQuantizeByteMatchesInt8(t *testing.T) {
	src := []float64{-3.5, 0, 0.25, 7, 1e-3, -1e-3}
	q8 := make([]int8, len(src))
	qb := make([]byte, len(src))
	s8, z8, err := Quantize(q8, src)
	if err != nil {
		t.Fatal(err)
	}
	sb, zb, err := Quantize(qb, src)
	if err != nil || sb != s8 || zb != z8 {
		t.Fatalf("byte form: scale %v zero %v err %v, int8 form: scale %v zero %v", sb, zb, err, s8, z8)
	}
	got8, gotb := Dequantize(nil, q8, s8, z8), Dequantize(nil, qb, sb, zb)
	for i, v := range src {
		if byte(q8[i]) != qb[i] || got8[i] != gotb[i] {
			t.Fatalf("dim %d: int8 %d -> %v, byte %d -> %v", i, q8[i], got8[i], qb[i], gotb[i])
		}
		if math.Abs(got8[i]-v) > float64(s8)/2+1e-12 {
			t.Fatalf("dim %d: %v decodes to %v, beyond scale/2 = %v", i, v, got8[i], s8/2)
		}
	}
}
