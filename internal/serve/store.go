// Package serve is AGL's online inference tier: a read-optimized embedding
// store loaded from GraphInfer's K-round outputs, a micro-batching request
// queue that coalesces concurrent cold lookups into single forward passes,
// and a bounded LRU score cache with single-flight deduplication. The batch
// pipelines (GraphFlat/GraphTrainer/GraphInfer) produce artifacts offline;
// this package answers per-node score requests at request latency.
//
// The serving graph is mutable: Server.Apply streams mutation batches onto
// versioned copy-on-write snapshots, and a k-hop walk over the snapshots'
// out-rows keeps the cache and store incrementally consistent (dynamic.go).
//
// The embedding store is one type, RowStore, over one file format. Its rows
// are either full-precision float64s or int8-quantized (a per-row affine
// scale and zero-point, ~8x smaller, scored directly in the quantized domain
// by dot-product edge heads), and its bytes live either on the heap or in a
// read-only mmap of the file, where the resident footprint is whatever the
// page cache keeps warm.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"agl/internal/dfs"
	"agl/internal/tensor"
)

// Store is the read interface of an embedding store. The serving tier
// (Server, ScoreLink, dynamic invalidation) is written against it so that
// callers can wrap a RowStore (tracing, fault injection). Rows travel as
// typed Row values carrying their codec, so packed layouts flow through the
// tier without being decoded at the store boundary.
//
// Aliasing contract: the Row payload returned by LookupRow/Range is a view
// into the store's memory (a heap buffer or the mapped file). It must be
// treated as read-only and must be cloned (Row.Clone / Row.FloatsCopy)
// before being retained across a batch boundary, stored in any structure
// that outlives the current request, or exposed to code that may mutate it —
// writing through a view of a mapped store would fault or corrupt the shared
// page-cache pages, and the view dies with Close. LookupInto is the
// exception: it always decodes into caller-owned memory.
type Store interface {
	// LookupRow returns the stored row for id in the store's codec. The
	// payload aliases store memory — see the interface comment.
	LookupRow(id int64) (Row, bool)
	// LookupInto decodes the stored row for id to float64s in dst (reused
	// when its capacity suffices, allocated otherwise). The result is
	// caller-owned — never a store view.
	LookupInto(dst []float64, id int64) ([]float64, bool)
	// RowCodec returns the codec every stored row uses.
	RowCodec() Codec
	// Len returns the number of stored embeddings.
	Len() int
	// Dim returns the embedding dimensionality (0 for an empty store).
	Dim() int
	// Range iterates the stored (id, row) pairs until fn returns false.
	// The row payload aliases store memory, same contract as LookupRow;
	// it is only valid for the duration of the callback.
	Range(fn func(id int64, row Row) bool)
	// WriteTo serializes the store in the store file format.
	WriteTo(w io.Writer) (int64, error)
}

// RowStore is the embedding store: the image of one store file plus typed
// views of its sections. The image is a heap buffer (built by NewStore or
// Quantize, or read and verified by OpenStore) or a read-only mmap of the
// file (OpenStore with mapped set: O(1) open, Verify on demand); lookups
// are the same binary search over the sorted id section either way.
//
// File layout (little-endian throughout):
//
//	offset  0  magic "AGLSTOR1"                     (8 bytes)
//	offset  8  uint32 dim                           (4 bytes)
//	offset 12  uint32 codec tag: 0 = f64, 1 = q8    (4 bytes)
//	offset 16  uint64 count                         (8 bytes)
//	offset 24  uint64 CRC64(ids section)            (8 bytes)
//	offset 32  uint64 CRC64(meta section)           (8 bytes)
//	offset 40  uint64 CRC64(rows section)           (8 bytes)
//	offset 48  uint64 CRC64(header bytes [0,48))    (8 bytes)
//	offset 56  zero padding                         (8 bytes)
//	offset 64  ids:  count x int64 node ids, sorted ascending
//	           meta: count x {float32 scale, float32 zero}, q8 only
//	           rows: count x dim x (float64 | int8), row i belongs to ids[i]
//
// The header checksum is verified at every open (it covers everything
// needed to trust the geometry); the section checksums cover the bulk
// payload and are verified by Verify. At dim d a q8 row costs d+16 bytes
// against 8d+8 for f64 (4.25x denser at dim 16).
//
// A RowStore is immutable and safe for concurrent readers: the serving
// tier's dynamic invalidation overlays recomputed rows in resident memory
// (Server.overlay) and never writes the store. Close releases the image,
// after which previously returned row views are invalid. A nil or closed
// RowStore answers like an empty one.
type RowStore struct {
	name   string // "store <path>" for error messages; "store image" when built
	data   []byte // the whole file image
	mapped bool   // data is an mmap and must go back through munmapFile
	codec  Codec
	dim    int
	ids    []int64
	meta   []float32 // q8: scale at 2i, zero at 2i+1
	f64    []float64 // f64 rows
	q8     []int8    // q8 rows
}

const (
	storeMagic      = "AGLSTOR1"
	storeHeaderSize = 64
	storeCRCRange   = 48 // header CRC covers bytes [0, 48)
)

// retiredMagics names every on-disk format this package once read and no
// longer does, with the aglserve flag that regenerates such a file. The
// store is a cache of GraphInfer output, so no converter is kept.
var retiredMagics = map[string]string{
	"AGLEMB01": "-store-save",
	"AGLEMB02": "-store-save",
	"AGLMAP01": "-store-save",
	"AGLQNT01": "-store-save",
	"AGLFR001": "-flight",
}

// retiredFormat returns the "format retired" error for a file starting
// with a retired magic, nil for any other bytes.
func retiredFormat(name string, head []byte) error {
	if len(head) < 8 {
		return nil
	}
	flag, ok := retiredMagics[string(head[:8])]
	if !ok {
		return nil
	}
	return fmt.Errorf("serve: %s: format %s retired, regenerate with aglserve %s", name, head[:8], flag)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// widths returns the bytes one row adds to the meta section and one
// dimension of one row adds to the rows section.
func (c Codec) widths() (meta, elem int) {
	if c == CodecQ8 {
		return 8, 1
	}
	return 0, 8
}

// storeLayout returns where the meta and rows sections start and the file
// ends for the given geometry. Only call it with a geometry that is known
// to fit in memory.
func storeLayout(codec Codec, dim, count int) (metaOff, rowsOff, end int) {
	mw, ew := codec.widths()
	metaOff = storeHeaderSize + 8*count
	rowsOff = metaOff + mw*count
	return metaOff, rowsOff, rowsOff + count*dim*ew
}

// buildStore lays out a heap image for the sorted ids, has fill encode each
// row (and its meta, for q8) in place, seals it with the checksummed header
// and opens it through the same parser file images go through.
func buildStore(codec Codec, dim int, ids []int64, fill func(i int, meta, row []byte) error) (*RowStore, error) {
	metaOff, rowsOff, end := storeLayout(codec, dim, len(ids))
	mw, ew := codec.widths()
	rw := dim * ew
	data := make([]byte, end)
	for i, id := range ids {
		binary.LittleEndian.PutUint64(data[storeHeaderSize+8*i:], uint64(id))
		if err := fill(i, data[metaOff+i*mw:][:mw], data[rowsOff+i*rw:][:rw]); err != nil {
			return nil, err
		}
	}
	copy(data, storeMagic)
	binary.LittleEndian.PutUint32(data[8:], uint32(dim))
	binary.LittleEndian.PutUint32(data[12:], uint32(codec))
	binary.LittleEndian.PutUint64(data[16:], uint64(len(ids)))
	binary.LittleEndian.PutUint64(data[24:], crc64.Checksum(data[storeHeaderSize:metaOff], crcTable))
	binary.LittleEndian.PutUint64(data[32:], crc64.Checksum(data[metaOff:rowsOff], crcTable))
	binary.LittleEndian.PutUint64(data[40:], crc64.Checksum(data[rowsOff:], crcTable))
	binary.LittleEndian.PutUint64(data[48:], crc64.Checksum(data[:storeCRCRange], crcTable))
	return parseStore(data, "store image")
}

// NewStore builds a heap-resident f64 store over GraphInfer's final-layer
// embeddings (InferResult.Embeddings); every embedding must share one
// dimensionality. The first argument is ignored: it was the shard count of
// a hash-sharded index that an immutable store never needed, and stays in
// the signature only until bench/ (which this change may not edit) drops it.
func NewStore(_ int, embeddings map[int64][]float64) (*RowStore, error) {
	ids := make([]int64, 0, len(embeddings))
	dim := 0
	for id, h := range embeddings {
		if dim == 0 {
			dim = len(h)
		}
		if len(h) != dim || dim == 0 {
			return nil, fmt.Errorf("serve: embedding for node %d has dim %d, want %d", id, len(h), dim)
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return buildStore(CodecF64, dim, ids, func(i int, _, row []byte) error {
		for j, v := range embeddings[ids[i]] {
			binary.LittleEndian.PutUint64(row[8*j:], math.Float64bits(v))
		}
		return nil
	})
}

// Quantize builds a heap-resident q8 store from any source store, encoding
// every row with tensor.Quantize (reconstruction error at most scale/2 per
// dimension). It fails, naming the node, on a row that codec refuses: a
// non-finite value, or a range whose scale or zero point a float32 cannot
// hold, either of which would decode to NaN (serve such stores in f64
// instead).
func Quantize(src Store) (*RowStore, error) {
	if src == nil {
		src = (*RowStore)(nil)
	}
	ids := make([]int64, 0, src.Len())
	src.Range(func(id int64, _ Row) bool {
		ids = append(ids, id)
		return true
	})
	slices.Sort(ids)
	dim := src.Dim()
	scratch := make([]float64, dim)
	return buildStore(CodecQ8, dim, ids, func(i int, meta, row []byte) error {
		emb, ok := src.LookupInto(scratch, ids[i])
		if !ok || len(emb) != dim {
			return fmt.Errorf("serve: quantize: store changed during encode: node %d (dim %d, want %d)",
				ids[i], len(emb), dim)
		}
		scale, zero, err := tensor.Quantize(viewLE[int8](row), emb)
		if err != nil {
			return fmt.Errorf("serve: quantize node %d: %w", ids[i], err)
		}
		binary.LittleEndian.PutUint32(meta[0:], math.Float32bits(scale))
		binary.LittleEndian.PutUint32(meta[4:], math.Float32bits(zero))
		return nil
	})
}

// OpenStore opens the store file at path. With mapped unset the file is
// read onto the heap and fully verified (header and section checksums).
// With mapped set it is mapped read-only and open is O(1) regardless of
// store size: only the 64-byte header is read and verified (magic, header
// checksum, and that the declared geometry is exactly the file size); use
// Verify to additionally checksum the sections.
func OpenStore(path string, mapped bool) (*RowStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var data []byte
	isMap := false
	if mapped && fi.Size() >= storeHeaderSize {
		data, isMap, err = mmapFile(f, fi.Size())
	} else {
		data = make([]byte, fi.Size())
		_, err = io.ReadFull(f, data)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read store %s: %w", path, err)
	}
	s, err := parseStore(data, "store "+path)
	if err == nil && !mapped {
		err = s.Verify()
	}
	if err != nil {
		if isMap {
			munmapFile(data) // nothing to report over the parse error
		}
		return nil, err
	}
	s.mapped = isMap
	return s, nil
}

// parseStore validates the header of a store file image and returns the
// store viewing it. Every bound is derived from len(data) by division
// before anything is multiplied or allocated, so no header field can make
// it overflow or allocate more than the image it was handed. name is what
// error messages call the image.
func parseStore(data []byte, name string) (*RowStore, error) {
	if err := retiredFormat(name, data); err != nil {
		return nil, err
	}
	if len(data) < storeHeaderSize {
		return nil, fmt.Errorf("serve: %s truncated at offset %d: want at least the %d-byte header",
			name, len(data), storeHeaderSize)
	}
	if string(data[:8]) != storeMagic {
		return nil, fmt.Errorf("serve: %s: bad magic %q at offset 0 (want %q)", name, data[:8], storeMagic)
	}
	wantCRC := binary.LittleEndian.Uint64(data[48:])
	if got := crc64.Checksum(data[:storeCRCRange], crcTable); got != wantCRC {
		return nil, fmt.Errorf("serve: %s: header checksum mismatch at offset 48: got %#016x, want %#016x",
			name, got, wantCRC)
	}
	dim := binary.LittleEndian.Uint32(data[8:])
	tag := binary.LittleEndian.Uint32(data[12:])
	count := binary.LittleEndian.Uint64(data[16:])
	if tag > uint32(CodecQ8) || dim > 1<<20 || (count > 0 && dim == 0) {
		return nil, fmt.Errorf("serve: %s: implausible header at offset 8 (dim=%d codec tag=%d count=%d)",
			name, dim, tag, count)
	}
	codec := Codec(tag)
	mw, ew := codec.widths()
	fixed, width := uint64(8+mw), uint64(ew) // per-row bytes outside the rows section, per-dim bytes inside
	body := uint64(len(data) - storeHeaderSize)
	short := count > body/fixed
	if !short && count > 0 {
		short = uint64(dim) > (body-count*fixed)/(count*width)
	}
	if short {
		return nil, fmt.Errorf("serve: %s: truncated or implausible header: %d bytes cannot hold the count=%d dim=%d %s rows the header at offset 8 declares",
			name, len(data), count, dim, codec)
	}
	metaOff, rowsOff, end := storeLayout(codec, int(dim), int(count))
	if len(data) > end {
		return nil, fmt.Errorf("serve: %s: %d trailing bytes past offset %d (count=%d dim=%d)",
			name, len(data)-end, end, count, dim)
	}
	s := &RowStore{name: name, data: data, codec: codec, dim: int(dim),
		ids: viewLE[int64](data[storeHeaderSize:metaOff])}
	if codec == CodecQ8 {
		s.meta = viewLE[float32](data[metaOff:rowsOff])
		s.q8 = viewLE[int8](data[rowsOff:end])
	} else {
		s.f64 = viewLE[float64](data[rowsOff:end])
	}
	return s, nil
}

// find returns the index of id in the sorted id section, or -1. The search
// is hand-rolled rather than sort.Search: it sits on the warm path, where
// the closure-call overhead is measurable against a ~100ns request.
func (s *RowStore) find(id int64) int {
	if s == nil {
		return -1
	}
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch v := s.ids[mid]; {
		case v == id:
			return mid
		case v < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// rowAt returns row i, capacity-capped so an append cannot reach row i+1.
func (s *RowStore) rowAt(i int) Row {
	lo, hi := i*s.dim, (i+1)*s.dim
	if s.codec == CodecQ8 {
		return Q8Row(s.q8[lo:hi:hi], s.meta[2*i], s.meta[2*i+1])
	}
	return F64Row(s.f64[lo:hi:hi])
}

// LookupRow returns the stored row for id in the store's codec. The
// payload aliases the store's memory — read-only, clone before retaining,
// invalid after Close (see Store).
func (s *RowStore) LookupRow(id int64) (Row, bool) {
	i := s.find(id)
	if i < 0 {
		return Row{}, false
	}
	return s.rowAt(i), true
}

// LookupInto decodes the stored row for id into caller-owned memory.
func (s *RowStore) LookupInto(dst []float64, id int64) ([]float64, bool) {
	i := s.find(id)
	if i < 0 {
		return nil, false
	}
	if s.codec == CodecQ8 {
		return tensor.Dequantize(dst, s.q8[i*s.dim:(i+1)*s.dim], s.meta[2*i], s.meta[2*i+1]), true
	}
	if cap(dst) < s.dim {
		dst = make([]float64, s.dim)
	}
	dst = dst[:s.dim]
	copy(dst, s.f64[i*s.dim:])
	return dst, true
}

// RowCodec returns the codec every stored row uses (CodecF64 for a nil
// store).
func (s *RowStore) RowCodec() Codec {
	if s == nil {
		return CodecF64
	}
	return s.codec
}

// Len returns the number of stored embeddings.
func (s *RowStore) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ids)
}

// Dim returns the embedding dimensionality (0 for an empty store).
func (s *RowStore) Dim() int {
	if s == nil {
		return 0
	}
	return s.dim
}

// Range iterates the stored rows in ascending id order. The row payload
// aliases the store's memory, valid only for the callback.
func (s *RowStore) Range(fn func(id int64, row Row) bool) {
	if s == nil {
		return
	}
	for i, id := range s.ids {
		if !fn(id, s.rowAt(i)) {
			return
		}
	}
}

// WriteTo writes the file image — the store already is its serialization,
// so this is a single contiguous write. A nil or closed store writes the
// bare header of an empty f64 store.
func (s *RowStore) WriteTo(w io.Writer) (int64, error) {
	if s == nil || s.data == nil {
		empty, err := buildStore(CodecF64, 0, nil, nil)
		if err != nil {
			return 0, err
		}
		s = empty
	}
	n, err := w.Write(s.data)
	return int64(n), err
}

// Save persists the store at path with dfs.WriteFile (staged, fsynced and
// renamed into place), so a crash mid-write never leaves a half-written
// store at path.
func (s *RowStore) Save(path string) error {
	err := dfs.WriteFile(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: save store %s: %w", path, err)
	}
	return nil
}

// Verify checksums the id, meta and row sections against the header — the
// full integrity check a mapped open defers. It faults in every page of a
// mapped store, so it costs one sequential read of the file.
func (s *RowStore) Verify() error {
	if s == nil || s.data == nil {
		return nil
	}
	metaOff, rowsOff, end := storeLayout(s.codec, s.dim, len(s.ids))
	for _, sec := range []struct {
		name            string
		start, end, crc int
	}{
		{"index", storeHeaderSize, metaOff, 24},
		{"meta", metaOff, rowsOff, 32},
		{"row", rowsOff, end, 40},
	} {
		want := binary.LittleEndian.Uint64(s.data[sec.crc:])
		if got := crc64.Checksum(s.data[sec.start:sec.end], crcTable); got != want {
			return fmt.Errorf("serve: %s: %s checksum mismatch (section at offset %d): got %#016x, want %#016x",
				s.name, sec.name, sec.start, got, want)
		}
	}
	return nil
}

// Close releases the file image, unmapping it if it was mapped. Rows
// previously returned by LookupRow/Range are invalid afterwards. Close is
// idempotent.
func (s *RowStore) Close() error {
	if s == nil || s.data == nil {
		return nil
	}
	data, mapped := s.data, s.mapped
	*s = RowStore{name: s.name, codec: s.codec}
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// viewLE reinterprets b as little-endian Ts. On little-endian hosts with
// aligned input this is a zero-copy cast; otherwise it falls back to an
// allocating decode (correct everywhere, paid only on exotic platforms or
// unaligned heap buffers).
func viewLE[T int64 | float64 | float32 | int8](b []byte) []T {
	var zero T
	w := int(unsafe.Sizeof(zero))
	n := len(b) / w
	if n == 0 {
		return nil
	}
	if w == 1 || (hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(w) == 0) {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*w)
	copy(raw, b)
	if !hostLittleEndian {
		for i := 0; i < len(raw); i += w {
			slices.Reverse(raw[i : i+w])
		}
	}
	return out
}

// hostLittleEndian reports whether the native byte order matches the
// file's little-endian layout, deciding whether viewLE may cast.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
