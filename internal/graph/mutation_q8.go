package graph

import (
	"encoding/json"
	"math"
)

// Quantized wire form for the mutation catch-up feed. Feature payloads
// dominate the feed's bandwidth (AddNode/UpdateNodeFeat carry a full
// float64 vector each); the q8 form packs them as int8 with a per-vector
// affine (scale, zero) pair — the same scheme as the serving tier's row
// codec (internal/serve), kept local here because serve imports graph.
// The encoding is lossy (absolute error at most scale/2 per component),
// so it is strictly opt-in: GET /mutations?codec=q8. Decoding is
// transparent — Mutation.UnmarshalJSON accepts both forms.

// quantizeFeat encodes src as int8 against an affine (scale, zero):
// a stored q decodes to (float64(q) - zero) * scale. ok is false when src
// is empty, contains a non-finite value, or spans a range whose scale or
// zero point a float32 cannot hold (it overflows, or the scale underflows
// to 0), in which case the caller must fall back to the float form.
func quantizeFeat(src []float64) (q []byte, scale, zero float32, ok bool) {
	if len(src) == 0 {
		return nil, 0, 0, false
	}
	low, high := math.Inf(1), math.Inf(-1)
	for _, v := range src {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, 0, false
		}
		if v < low {
			low = v
		}
		if v > high {
			high = v
		}
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
		return nil, 0, 0, false
	}
	q = make([]byte, len(src))
	for i, v := range src {
		r := math.Round(v/s64 + z64)
		if r < -128 {
			r = -128
		} else if r > 127 {
			r = 127
		}
		q[i] = byte(int8(r))
	}
	return q, scale, zero, true
}

// dequantFeat decodes a q8 feature payload back to float64s.
func dequantFeat(q []byte, scale, zero float32) []float64 {
	out := make([]float64, len(q))
	s, z := float64(scale), float64(zero)
	for i, b := range q {
		out[i] = (float64(int8(b)) - z) * s
	}
	return out
}

// q8Mutation marshals a Mutation with its feature payload quantized.
// Non-finite payloads fall back to the float form rather than failing the
// whole feed response.
type q8Mutation Mutation

// MarshalJSON encodes the mutation in the q8 wire form.
func (m q8Mutation) MarshalJSON() ([]byte, error) {
	w := mutationJSON{
		Op: m.Op.String(), ID: m.ID,
		Src: m.Src, Dst: m.Dst, Weight: m.Weight,
	}
	if q, scale, zero, ok := quantizeFeat(m.Feat); ok {
		w.FeatQ8, w.FeatScale, w.FeatZero = q, scale, zero
	} else {
		w.Feat = m.Feat
	}
	return json.Marshal(w)
}

// QuantizedLogEntry is a LogEntry whose JSON form carries q8 feature
// payloads. It exists only as a marshal wrapper for the catch-up feed;
// decoding goes through the ordinary LogEntry, whose mutations accept
// both wire forms.
type QuantizedLogEntry struct {
	Version uint64       `json:"version"`
	Muts    []q8Mutation `json:"muts"`
}

// QuantizeLog wraps feed entries for q8 marshaling. The mutation slices
// are referenced, not copied.
func QuantizeLog(entries []LogEntry) []QuantizedLogEntry {
	out := make([]QuantizedLogEntry, len(entries))
	for i, e := range entries {
		muts := make([]q8Mutation, len(e.Muts))
		for j, m := range e.Muts {
			muts[j] = q8Mutation(m)
		}
		out[i] = QuantizedLogEntry{Version: e.Version, Muts: muts}
	}
	return out
}
