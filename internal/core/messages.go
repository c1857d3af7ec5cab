package core

import (
	"fmt"

	"agl/internal/wire"
)

// Shuffle message tags. Every reduce value starts with one tag byte: the
// three kinds of information of paper §3.2.1 (self, in-edge, out-edge), the
// round-0 node row, and the prediction round's score. What a self or
// in-edge message carries — a k-hop subgraph for GraphFlat, an embedding for
// GraphInfer — is the job's state, opaque bytes to the engine.
const (
	tagNodeRow byte = iota + 1 // round-0 join: a node's raw features
	tagOutEdge                 // out-edge info: destination + weight
	tagSelf                    // self info: the node's own state
	tagInEdge                  // in-edge info: source, weight, the source's state
	tagScore                   // GraphInfer: final predicted scores
)

// flatMsg is the decoded form of one GraphFlat/GraphInfer shuffle value.
type flatMsg struct {
	Tag byte

	Feat []float64 // tagNodeRow

	Dst   int64     // tagOutEdge
	Src   int64     // tagInEdge
	W     float64   // tagOutEdge, tagInEdge
	EFeat []float64 // edge features: tagOutEdge, tagInEdge

	// State is the job-encoded payload and always the tail of the value:
	// tagSelf, tagInEdge; on tagScore the node's encoded wire.Embedding,
	// empty unless KeepEmbeddings.
	State  []byte
	Scores []float64 // tagScore
}

// encode serializes m.
func (m *flatMsg) encode() []byte {
	b := make([]byte, 1, 32+len(m.State))
	b[0] = m.Tag
	switch m.Tag {
	case tagNodeRow:
		b = wire.AppendFloat64s(b, m.Feat)
	case tagOutEdge:
		b = wire.AppendVarint(b, m.Dst)
		b = wire.AppendFloat64(b, m.W)
		b = wire.AppendFloat64s(b, m.EFeat)
	case tagSelf:
	case tagInEdge:
		b = wire.AppendVarint(b, m.Src)
		b = wire.AppendFloat64(b, m.W)
		b = wire.AppendFloat64s(b, m.EFeat)
	case tagScore:
		b = wire.AppendFloat64s(b, m.Scores)
	default:
		panic(fmt.Sprintf("core: encode of unknown tag %d", m.Tag))
	}
	return append(b, m.State...)
}

// decodeMsg deserializes one shuffle value. State is copied out of buf, so
// the message may outlive the shuffle's reusable read buffer.
func decodeMsg(buf []byte) (*flatMsg, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("core: empty shuffle value")
	}
	m := &flatMsg{Tag: buf[0]}
	r := wire.NewReader(buf[1:])
	switch m.Tag {
	case tagNodeRow:
		m.Feat = r.Float64s()
	case tagOutEdge:
		m.Dst = r.Varint()
		m.W = r.Float64()
		m.EFeat = r.Float64s()
	case tagSelf:
	case tagInEdge:
		m.Src = r.Varint()
		m.W = r.Float64()
		m.EFeat = r.Float64s()
	case tagScore:
		m.Scores = r.Float64s()
	default:
		return nil, fmt.Errorf("core: unknown shuffle tag %d", m.Tag)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decode tag %d: %w", m.Tag, err)
	}
	if n := r.Remaining(); n > 0 {
		m.State = append([]byte(nil), buf[len(buf)-n:]...)
	}
	return m, nil
}
