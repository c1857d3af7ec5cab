package graph

import (
	"encoding/json"

	"agl/internal/tensor"
)

// Quantized wire form for the mutation catch-up feed. Feature payloads
// dominate the feed's bandwidth (AddNode/UpdateNodeFeat carry a full
// float64 vector each); the q8 form packs them as int8 with a per-vector
// affine (scale, zero) pair through tensor.Quantize, the codec of the
// serving tier's q8 rows. The encoding is lossy (absolute error at most
// scale/2 per component), so it is strictly opt-in: GET
// /mutations?codec=q8. Decoding is transparent — Mutation.UnmarshalJSON
// accepts both forms.

// quantizeFeat encodes src as int8. ok is false when src is empty or
// tensor.Quantize refuses it, in which case the caller must fall back to
// the float form.
func quantizeFeat(src []float64) (q []byte, scale, zero float32, ok bool) {
	if len(src) == 0 {
		return nil, 0, 0, false
	}
	q = make([]byte, len(src))
	scale, zero, err := tensor.Quantize(q, src)
	return q, scale, zero, err == nil
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
