// Package wire implements the compact binary format AGL uses for
// GraphFeatures and MapReduce values — the stand-in for the paper's
// "protobuf strings". It provides varint/zig-zag primitives plus codecs for
// subgraphs and training records. Buffers are append-style for writers and
// cursor-style for readers, so encoding a k-hop neighborhood allocates only
// the output slice.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// errPaddedVarint reports a varint longer than its value needs.
var errPaddedVarint = errors.New("wire: padded varint")

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v zig-zag encoded.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// AppendFloat64 appends the IEEE-754 bits of v, little endian.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat64s appends a length-prefixed slice of float64s.
func AppendFloat64s(b []byte, vs []float64) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendFloat64(b, v)
	}
	return b
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader is a cursor over an encoded buffer. The first error sticks; check
// Err after a sequence of reads.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Uvarint reads an unsigned varint. Only the shortest encoding of a value
// is accepted, so every accepted message re-encodes to the same bytes.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	if n > 1 && r.buf[r.pos+n-1] == 0 {
		r.err = errPaddedVarint
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zig-zag encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads an IEEE-754 float64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.err = ErrTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Float64s reads a length-prefixed slice of float64s.
func (r *Reader) Float64s() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// Divide, never multiply: n*8 wraps for counts near 1<<61.
	if n > uint64(r.Remaining()/8) {
		r.err = ErrTruncated
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Bytes reads a length-prefixed byte slice (a view into the buffer, not a
// copy).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
