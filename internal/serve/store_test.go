package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/tensor"
)

// randomEmbeddings builds n random embeddings with mixed-sign ids,
// including NaN/Inf payloads so bit-identity (not float equality) is what
// the f64 property tests actually check.
func randomEmbeddings(seed int64, n, dim int) map[int64][]float64 {
	rng := rand.New(rand.NewSource(seed))
	embs := make(map[int64][]float64, n)
	for len(embs) < n {
		id := int64(rng.Intn(4*n)) - int64(2*n)
		h := make([]float64, dim)
		for j := range h {
			switch rng.Intn(20) {
			case 0:
				h[j] = math.NaN()
			case 1:
				h[j] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				h[j] = 0
			default:
				h[j] = rng.NormFloat64()
			}
		}
		embs[id] = h
	}
	return embs
}

// finiteEmbeddings mirrors randomEmbeddings without the NaN/Inf payloads:
// quantization has no affine image for non-finite values (Quantize rejects
// them by contract), so the q8 variants draw from finite rows with mixed
// magnitudes instead.
func finiteEmbeddings(seed int64, n, dim int) map[int64][]float64 {
	rng := rand.New(rand.NewSource(seed))
	embs := make(map[int64][]float64, n)
	for len(embs) < n {
		id := int64(rng.Intn(4*n)) - int64(2*n)
		h := make([]float64, dim)
		mag := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
		for j := range h {
			if rng.Intn(16) != 0 {
				h[j] = rng.NormFloat64() * mag
			}
		}
		embs[id] = h
	}
	return embs
}

// storeVariant is one cell of the codec x residency matrix every store
// suite below runs over: the same type and file format in all four.
type storeVariant struct {
	name   string
	codec  Codec
	mapped bool
}

var storeVariants = []storeVariant{
	{"f64-heap", CodecF64, false},
	{"f64-mmap", CodecF64, true},
	{"q8-heap", CodecQ8, false},
	{"q8-mmap", CodecQ8, true},
}

// build returns a heap-built store of the variant's codec over embs.
func (v storeVariant) build(t testing.TB, embs map[int64][]float64) *RowStore {
	t.Helper()
	st, err := NewStore(0, embs)
	if err == nil && v.codec == CodecQ8 {
		st, err = Quantize(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// embeddings draws a fixture the variant's codec can hold.
func (v storeVariant) embeddings(seed int64, n, dim int) map[int64][]float64 {
	if v.codec == CodecQ8 {
		return finiteEmbeddings(seed, n, dim)
	}
	return randomEmbeddings(seed, n, dim)
}

// saveStore persists src in a fresh temp dir and returns the file's path.
func saveStore(t testing.TB, src *RowStore) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.agl")
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSaved round-trips src through a store file with the given residency,
// closing on test cleanup.
func openSaved(t testing.TB, src *RowStore, mapped bool) *RowStore {
	t.Helper()
	st, err := OpenStore(saveStore(t, src), mapped)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreVariantsMatchSource is the equivalence property: over every
// codec and residency, every Store method answers consistently with the
// embeddings the store was built from — bit-identically for f64, within
// the documented scale/2 reconstruction error for q8 — a built store and
// its file-backed twin serialize to the file's exact bytes, Range stops
// when told to, and row views honor the aliasing contract.
func TestStoreVariantsMatchSource(t *testing.T) {
	for _, v := range storeVariants {
		t.Run(v.name, func(t *testing.T) {
			embs := v.embeddings(11, 600, 7)
			built := v.build(t, embs)
			path := saveStore(t, built)
			st, err := OpenStore(path, v.mapped)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			if st.Len() != len(embs) || st.Dim() != 7 || st.RowCodec() != v.codec {
				t.Fatalf("len/dim/codec %d/%d/%v, want %d/7/%v", st.Len(), st.Dim(), st.RowCodec(), len(embs), v.codec)
			}
			buf := make([]float64, st.Dim())
			for id := int64(-1500); id < 1500; id++ {
				row, ok := st.LookupRow(id)
				via, vok := st.LookupInto(buf, id)
				want, wok := embs[id]
				if ok != wok || vok != wok {
					t.Fatalf("id %d: LookupRow ok=%v LookupInto ok=%v, source ok=%v", id, ok, vok, wok)
				}
				if !ok {
					continue
				}
				if row.Codec() != v.codec || row.Dim() != st.Dim() {
					t.Fatalf("id %d: row codec %v dim %d", id, row.Codec(), row.Dim())
				}
				if b, _ := built.LookupRow(id); b.Scale != row.Scale || b.Zero != row.Zero {
					t.Fatalf("id %d: built meta (%v,%v) vs opened (%v,%v)", id, b.Scale, b.Zero, row.Scale, row.Zero)
				}
				dec := row.Floats(nil)
				bound := float64(row.Scale)/2 + 1e-6 // Scale is 0 for f64 rows
				for j := range want {
					if math.Float64bits(dec[j]) != math.Float64bits(via[j]) {
						t.Fatalf("id %d dim %d: Floats %v != LookupInto %v", id, j, dec[j], via[j])
					}
					if v.codec == CodecF64 && math.Float64bits(dec[j]) != math.Float64bits(want[j]) {
						t.Fatalf("id %d dim %d: stored %x, source %x", id, j, math.Float64bits(dec[j]), math.Float64bits(want[j]))
					}
					if diff := math.Abs(dec[j] - want[j]); v.codec == CodecQ8 && diff > bound*(1+math.Abs(want[j])) {
						t.Fatalf("id %d dim %d: |%v - %v| = %v exceeds bound %v", id, j, dec[j], want[j], diff, bound)
					}
				}
			}

			// Range visits the same id set, ascending, with rows aliasing
			// what LookupRow returns.
			var prev int64 = math.MinInt64
			seen := 0
			st.Range(func(id int64, row Row) bool {
				if id <= prev {
					t.Fatalf("Range out of order: %d after %d", id, prev)
				}
				prev = id
				seen++
				direct, ok := st.LookupRow(id)
				if !ok || (v.codec == CodecQ8 && &direct.Q8[0] != &row.Q8[0]) || (v.codec == CodecF64 && &direct.F64[0] != &row.F64[0]) {
					t.Fatalf("Range row for %d does not alias LookupRow", id)
				}
				return true
			})
			if seen != len(embs) {
				t.Fatalf("Range visited %d ids, want %d", seen, len(embs))
			}
			seen = 0
			st.Range(func(int64, Row) bool { seen++; return false })
			if seen != 1 {
				t.Fatalf("Range visited %d rows after a stop", seen)
			}

			// Aliasing contract: the view is capacity-capped (an append
			// cannot clobber the neighboring row) and a copy is detached.
			row, _ := st.LookupRow(prev)
			if cap(row.F64) != len(row.F64) || cap(row.Q8) != len(row.Q8) {
				t.Fatal("LookupRow view has spare capacity: an append would scribble on the store")
			}
			before := row.FloatsCopy()
			cp := row.FloatsCopy()
			cp[0] = math.Pi
			if after, _ := st.LookupRow(prev); math.Float64bits(after.Floats(nil)[0]) != math.Float64bits(before[0]) {
				t.Fatal("mutating a copy reached the store")
			}

			// One serialization: the built store, the opened store and the
			// file are the same bytes, and a fresh file verifies clean.
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*RowStore{"built": built, "opened": st} {
				var out bytes.Buffer
				if _, err := s.WriteTo(&out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), disk) {
					t.Fatalf("%s store's WriteTo bytes differ from the file", name)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("Verify on a fresh %s store: %v", name, err)
				}
			}
		})
	}
}

// TestStoreEmptyNilClosed pins the degenerate receivers every variant
// shares: zero embeddings is a valid store on both the write and read
// sides, a closed store answers like an empty one, Close is idempotent,
// and a nil store answers empty and serializes a valid bare header.
func TestStoreEmptyNilClosed(t *testing.T) {
	for _, v := range storeVariants {
		t.Run(v.name, func(t *testing.T) {
			st := openSaved(t, v.build(t, nil), v.mapped)
			if st.Len() != 0 || st.Dim() != 0 || st.RowCodec() != v.codec {
				t.Fatalf("empty store len=%d dim=%d codec=%v", st.Len(), st.Dim(), st.RowCodec())
			}
			if _, ok := st.LookupRow(1); ok {
				t.Fatal("empty store returned a row")
			}
			full := openSaved(t, v.build(t, v.embeddings(3, 10, 2)), v.mapped)
			for _, s := range []*RowStore{st, full} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil { // idempotent
					t.Fatal(err)
				}
				if _, ok := s.LookupInto(nil, 1); ok || s.Len() != 0 || s.Verify() != nil {
					t.Fatal("closed store not empty")
				}
			}
		})
	}

	var nilStore *RowStore
	if nilStore.Len() != 0 || nilStore.Dim() != 0 || nilStore.Verify() != nil || nilStore.Close() != nil {
		t.Fatal("nil store not empty")
	}
	if _, ok := nilStore.LookupRow(1); ok {
		t.Fatal("nil store resolved a lookup")
	}
	nilStore.Range(func(int64, Row) bool { t.Fatal("Range callback on nil store"); return true })
	var buf bytes.Buffer
	if _, err := nilStore.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != storeHeaderSize {
		t.Fatalf("nil store wrote %d bytes, want the bare %d-byte header", buf.Len(), storeHeaderSize)
	}
	if back, err := parseStore(buf.Bytes(), "store image"); err != nil || back.Len() != 0 {
		t.Fatalf("nil store's serialization does not reopen empty: %v", err)
	}
	if q, err := Quantize(nil); err != nil || q.Len() != 0 || q.RowCodec() != CodecQ8 {
		t.Fatalf("Quantize(nil) = %v, %v", q, err)
	}
}

// corruption is one damaged store file: what was done to a good file and
// what the rejection must say. Payload damage (payload set) leaves the
// header intact, so only the full checksum pass can see it: a heap open
// rejects it, an O(1) mapped open passes and Verify catches it.
type corruption struct {
	name    string
	data    []byte
	wantSub string
	payload bool
}

// corruptions is the one corruption table, derived from a good file of
// either codec. It also seeds FuzzOpenStore.
func corruptions(good []byte) []corruption {
	mutate := func(fn func(b []byte)) []byte {
		out := append([]byte(nil), good...)
		fn(out)
		return out
	}
	// reheader edits header fields and re-signs the header, so the damage
	// gets past the header checksum to the geometry checks.
	reheader := func(fn func(b []byte)) []byte {
		return mutate(func(b []byte) {
			fn(b)
			binary.LittleEndian.PutUint64(b[48:], crc64.Checksum(b[:storeCRCRange], crcTable))
		})
	}
	count := int(binary.LittleEndian.Uint64(good[16:]))
	codec := Codec(binary.LittleEndian.Uint32(good[12:]))
	metaOff, rowsOff, _ := storeLayout(codec, int(binary.LittleEndian.Uint32(good[8:])), count)
	cases := []corruption{
		{"empty file", nil, "truncated", false},
		{"magic only", good[:8], "truncated", false},
		{"shorter than header", good[:40], "truncated", false},
		{"bad magic", mutate(func(b []byte) { copy(b, "NOTASTOR") }), "bad magic", false},
		{"header bit flip", mutate(func(b []byte) { b[16] ^= 0x01 }), "header checksum mismatch", false},
		{"truncated in ids", good[:storeHeaderSize+6], "truncated", false},
		{"truncated in rows", good[:len(good)-5], "truncated", false},
		{"trailing bytes", append(append([]byte(nil), good...), 0, 0, 0), "trailing bytes", false},
		// count*dim*8 = 2^63 wraps negative if multiplied before it is
		// compared to the file size; the parser must divide instead.
		{"geometry overflow", reheader(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 1<<20)
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
		}), "implausible header", false},
		{"count past file", reheader(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], math.MaxUint64) }), "implausible header", false},
		{"dim past bound", reheader(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<20+1) }), "implausible header", false},
		{"zero dim", reheader(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }), "implausible header", false},
		{"unknown codec tag", reheader(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 7) }), "implausible header", false},
		{"index flip", mutate(func(b []byte) { b[storeHeaderSize+3] ^= 0x40 }), "index checksum mismatch", true},
		{"row flip", mutate(func(b []byte) { b[rowsOff+5] ^= 0x40 }), "row checksum mismatch", true},
	}
	if codec == CodecQ8 {
		cases = append(cases, corruption{"meta flip", mutate(func(b []byte) { b[metaOff+2] ^= 0x40 }), "meta checksum mismatch", true})
	}
	return cases
}

// TestOpenStoreCorruption runs the corruption table over every codec and
// residency: every damaged file must be rejected with an error naming what
// broke and where.
func TestOpenStoreCorruption(t *testing.T) {
	for _, v := range storeVariants {
		good, err := os.ReadFile(saveStore(t, v.build(t, v.embeddings(17, 40, 3))))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range corruptions(good) {
			t.Run(v.name+"/"+tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "bad.agl")
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := OpenStore(path, v.mapped)
				if tc.payload && v.mapped {
					if err != nil {
						t.Fatalf("mapped open after payload damage should succeed (header intact): %v", err)
					}
					defer st.Close()
					err = st.Verify()
				}
				if err == nil {
					t.Fatal("corrupted store accepted")
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("error %q does not mention %q", err, tc.wantSub)
				}
				if !strings.Contains(err.Error(), "offset") {
					t.Fatalf("error %q carries no offset", err)
				}
			})
		}
	}
}

// TestRetiredFormatsRejected: the formats PR 12 stopped reading fail with
// one message that says how to get a current file, whatever follows the
// magic and whichever reader is handed the file.
func TestRetiredFormatsRejected(t *testing.T) {
	dir := t.TempDir()
	for _, magic := range []string{"AGLEMB01", "AGLEMB02", "AGLMAP01", "AGLQNT01", "AGLFR001"} {
		for _, size := range []int{8, 32, 200} {
			path := filepath.Join(dir, magic)
			if err := os.WriteFile(path, append([]byte(magic), make([]byte, size-8)...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, heapErr := OpenStore(path, false)
			_, mapErr := OpenStore(path, true)
			errs := []error{heapErr, mapErr}
			if magic == "AGLFR001" && size >= flightHdrSize {
				_, flightErr := ReadFlightFile(path)
				errs = append(errs, flightErr)
			}
			for _, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "format "+magic+" retired, regenerate with aglserve -") {
					t.Fatalf("%s (%d bytes): error %v does not say the format is retired and how to regenerate", magic, size, err)
				}
			}
		}
	}
}

// TestStoreSpecOpen drives the declarative selection end to end: every
// backend builds, saves, reopens the saved file in its residency, and
// refuses a file whose codec tag is not the backend's.
func TestStoreSpecOpen(t *testing.T) {
	embs := finiteEmbeddings(61, 50, 4)
	dir := t.TempDir()
	saved := map[string]string{}
	for backend, codec := range map[string]Codec{"": CodecF64, BackendMem: CodecF64, BackendMmap: CodecF64, BackendQuant: CodecQ8} {
		path := filepath.Join(dir, "store."+backend)
		built, closeBuilt, err := StoreSpec{Backend: backend, SavePath: path}.Open(embs)
		if err != nil {
			t.Fatalf("%q: build+save: %v", backend, err)
		}
		wantMapped := backend == BackendMmap || backend == BackendQuant
		if built.Len() != len(embs) || built.RowCodec() != codec || built.(*RowStore).mapped != wantMapped {
			t.Fatalf("%q: built len=%d codec=%v mapped=%v", backend, built.Len(), built.RowCodec(), built.(*RowStore).mapped)
		}
		if err := closeBuilt(); err != nil {
			t.Fatal(err)
		}
		copyPath := path + ".copy"
		st, closeStore, err := StoreSpec{Backend: backend, Path: path, SavePath: copyPath, Verify: true}.Open(nil)
		if err != nil {
			t.Fatalf("%q: reopen: %v", backend, err)
		}
		if st.Len() != len(embs) || st.(*RowStore).mapped != wantMapped {
			t.Fatalf("%q: reopened len=%d mapped=%v", backend, st.Len(), st.(*RowStore).mapped)
		}
		a, _ := os.ReadFile(path)
		b, err := os.ReadFile(copyPath)
		if err != nil || !bytes.Equal(a, b) {
			t.Fatalf("%q: SavePath copy differs from Path (%v)", backend, err)
		}
		if err := closeStore(); err != nil {
			t.Fatal(err)
		}
		saved[backend] = path
	}
	if !bytes.Equal(mustRead(t, saved[BackendMem]), mustRead(t, saved[BackendMmap])) {
		t.Fatal("mem and mmap backends wrote different files for the same embeddings")
	}
	if st, _, err := (StoreSpec{Backend: BackendQuant}).Open(embs); err != nil || st.(*RowStore).mapped {
		t.Fatalf("quant backend without a file must serve from the heap: %v", err)
	}

	for _, tc := range []struct {
		spec    StoreSpec
		wantSub string
	}{
		{StoreSpec{Backend: BackendQuant, Path: saved[BackendMem]}, "holds f64 rows"},
		{StoreSpec{Backend: BackendMem, Path: saved[BackendQuant]}, "holds q8 rows"},
		{StoreSpec{Backend: BackendMmap, Path: saved[BackendQuant]}, "holds q8 rows"},
		{StoreSpec{Backend: "tape"}, "unknown store backend"},
		{StoreSpec{Backend: BackendMmap}, "needs a path"},
		{StoreSpec{Verify: true}, "no store path"},
		{StoreSpec{Path: filepath.Join(dir, "absent")}, "no such file"},
	} {
		if _, _, err := tc.spec.Open(embs); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%+v: error %v does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestViewLEFallback: an unaligned section cannot be cast, so the view is
// decoded into fresh memory with the same values.
func TestViewLEFallback(t *testing.T) {
	raw := make([]byte, 1+3*8)
	for i, v := range []float64{1.5, -2, math.Pi} {
		binary.LittleEndian.PutUint64(raw[1+8*i:], math.Float64bits(v))
	}
	got := viewLE[float64](raw[1:])
	if len(got) != 3 || got[0] != 1.5 || got[1] != -2 || got[2] != math.Pi {
		t.Fatalf("unaligned view decoded %v", got)
	}
	got[0] = 9
	if math.Float64frombits(binary.LittleEndian.Uint64(raw[1:])) != 1.5 {
		t.Fatal("fallback view aliases the unaligned source")
	}
	if viewLE[int64](nil) != nil {
		t.Fatal("empty section must view as nil")
	}
}

// FuzzOpenStore throws arbitrary bytes at the store parser. It must never
// panic, never hold more than the input (every slice of an opened store is
// a view of, or a decode no larger than, the image it was handed — no
// header field sizes an allocation), and an image that opens and verifies
// must serialize back to exactly the input.
func FuzzOpenStore(f *testing.F) {
	for _, v := range storeVariants {
		if v.mapped { // residency is not the parser's business: one seed set per codec
			continue
		}
		var good bytes.Buffer
		if _, err := v.build(f, v.embeddings(5, 12, 3)).WriteTo(&good); err != nil {
			f.Fatal(err)
		}
		f.Add(good.Bytes())
		for _, tc := range corruptions(good.Bytes()) {
			f.Add(tc.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseStore(data, "fuzz image")
		if err != nil {
			return
		}
		_, ew := s.codec.widths()
		if 8*s.Len() > len(data) || s.Len()*s.Dim()*ew > len(data) {
			t.Fatalf("store of %d bytes claims %d rows of dim %d", len(data), s.Len(), s.Dim())
		}
		s.Range(func(id int64, row Row) bool {
			if row.Dim() != s.Dim() {
				t.Fatalf("row %d has dim %d, store dim %d", id, row.Dim(), s.Dim())
			}
			s.LookupInto(nil, id) // ids may repeat or be unsorted in an unverified image; it must not panic
			return true
		})
		if s.Verify() != nil {
			return
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("verified image did not round-trip through WriteTo (%v)", err)
		}
	})
}

// TestQuantRoundTripErrorBound is the quantizer's core property: for any
// finite row, every dequantized value sits within half a quantization step
// of the original — |x̂ - x| <= scale/2 (plus float32 rounding headroom).
func TestQuantRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := make([]int8, 16)
	dst := make([]float64, 16)
	for trial := 0; trial < 2000; trial++ {
		row := make([]float64, 16)
		mag := math.Pow(10, float64(rng.Intn(9)-4)) // 1e-4 .. 1e4
		for j := range row {
			row[j] = rng.NormFloat64() * mag
		}
		scale, zero, err := tensor.Quantize(q, row)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := tensor.Dequantize(dst, q, scale, zero)
		bound := float64(scale) / 2
		for j := range row {
			// The half-step bound plus a relative term for the float32
			// rounding of scale/zero themselves.
			if diff := math.Abs(got[j] - row[j]); diff > bound+1e-6*(1+math.Abs(row[j])) {
				t.Fatalf("trial %d dim %d: |%v - %v| = %v exceeds scale/2 = %v (scale %v zero %v)",
					trial, j, got[j], row[j], diff, bound, scale, zero)
			}
		}
	}

	// Degenerate rows quantize exactly: constant, zero, and empty.
	for _, row := range [][]float64{
		{3.5, 3.5, 3.5},
		{-2.25, -2.25},
		{0, 0, 0, 0},
		{},
	} {
		scale, zero, err := tensor.Quantize(q[:len(row)], row)
		if err != nil {
			t.Fatalf("degenerate row %v: %v", row, err)
		}
		got := tensor.Dequantize(dst[:0], q[:len(row)], scale, zero)
		for j := range row {
			if math.Abs(got[j]-row[j]) > float64(scale)/2+1e-6*(1+math.Abs(row[j])) {
				t.Fatalf("degenerate row %v dim %d: got %v", row, j, got[j])
			}
		}
	}
}

// TestQuantizeRejectsNonFinite: NaN/Inf rows have no affine image and must
// fail loudly (naming the node), never encode to garbage.
func TestQuantizeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mem, err := NewStore(0, map[int64][]float64{
			1: {1, 2, 3},
			7: {0.5, bad, 1.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Quantize(mem); err == nil {
			t.Fatalf("Quantize accepted %v", bad)
		} else if !strings.Contains(err.Error(), "node 7") {
			t.Fatalf("error %q does not name the offending node", err)
		}
	}
}

// TestQuantizeRejectsUnrepresentableRange: finite rows whose scale or zero
// point a float32 cannot hold (a tiny constant or span underflows the scale
// to 0, a huge span overflows it to +Inf) would decode to NaN; Quantize
// must refuse them and name the node, as the mutation feed's q8 form does.
func TestQuantizeRejectsUnrepresentableRange(t *testing.T) {
	for _, bad := range [][]float64{{0, 1e-44}, {1e-44, 1e-44}, {0, 1e300}} {
		mem, err := NewStore(0, map[int64][]float64{1: {1, 2}, 7: bad})
		if err != nil {
			t.Fatal(err)
		}
		if q, err := Quantize(mem); err == nil {
			row, _ := q.LookupRow(7)
			t.Fatalf("Quantize accepted %v: scale %v zero %v decodes to %v", bad, row.Scale, row.Zero, row.Floats(nil))
		} else if !strings.Contains(err.Error(), "node 7") {
			t.Fatalf("error %q does not name the offending node", err)
		}
	}
}

// TestServeBackendsBitIdentical runs the serving tier's Score and
// ScoreLink over a heap and an mmap'd store: identical requests must
// produce bit-identical answers, because the two differ only in where the
// bytes live.
func TestServeBackendsBitIdentical(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadBilinear)
	mem, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	mapped := openSaved(t, mem, true)

	memSrv, err := New(Config{Seed: 4}, model, g, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer memSrv.Close()
	model2, err := gnn.UnmarshalModel(mustMarshal(t, model))
	if err != nil {
		t.Fatal(err)
	}
	mapSrv, err := New(Config{Seed: 4}, model2, g, mapped)
	if err != nil {
		t.Fatal(err)
	}
	defer mapSrv.Close()

	ctx := context.Background()
	ids := g.IDs()
	for i := 0; i < 40; i++ {
		id := ids[i*5%len(ids)]
		a, err := memSrv.Score(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapSrv.Score(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("node %d dim %d: mem %v mmap %v", id, j, a[j], b[j])
			}
		}
	}
	for i := 0; i < 25; i++ {
		src, dst := ids[i], ids[(i*13+7)%len(ids)]
		if src == dst {
			continue
		}
		a, err := memSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("pair (%d,%d): mem %v mmap %v", src, dst, a, b)
		}
	}
	if st := mapSrv.Stats(); st.Warm == 0 {
		t.Fatalf("mapped server never served warm: %+v", st)
	}
}

// TestServeQuantBackend runs the serving tier over f64 and q8 stores
// under a dot-product edge head: node scores and link logits must agree
// within the quantization error budget, warm traffic must actually serve
// warm, and the quantized warm link path must reproduce the
// dequantize-then-score reference exactly (quantDot computes the same
// affine expansion in exact int64 arithmetic).
func TestServeQuantBackend(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadDot)
	mem, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	heapQuant, err := Quantize(mem)
	if err != nil {
		t.Fatal(err)
	}
	quant := openSaved(t, heapQuant, true)

	memSrv, err := New(Config{Seed: 4}, model, g, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer memSrv.Close()
	model2, err := gnn.UnmarshalModel(mustMarshal(t, model))
	if err != nil {
		t.Fatal(err)
	}
	quantSrv, err := New(Config{Seed: 4}, model2, g, quant)
	if err != nil {
		t.Fatal(err)
	}
	defer quantSrv.Close()

	// Embeddings are tanh-bounded, so per-dim reconstruction error is at
	// most ~(2/255)/2 and a hidden-dim dot/dense accumulation stays well
	// inside this tolerance.
	const tol = 0.1
	ctx := context.Background()
	ids := g.IDs()
	for i := 0; i < 40; i++ {
		id := ids[i*5%len(ids)]
		a, err := memSrv.Score(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := quantSrv.Score(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				t.Fatalf("node %d dim %d: mem %v quant %v", id, j, a[j], b[j])
			}
		}
	}
	for i := 0; i < 25; i++ {
		src, dst := ids[i], ids[(i*13+7)%len(ids)]
		if src == dst {
			continue
		}
		a, err := memSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := quantSrv.ScoreLink(ctx, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > tol {
			t.Fatalf("pair (%d,%d): mem %v quant %v", src, dst, a, b)
		}

		// quantDot vs the dequantize-then-dot reference: identical up to
		// float64 rounding, since both expand the same affine form.
		ru, uok := quant.LookupRow(src)
		rv, vok := quant.LookupRow(dst)
		if !uok || !vok {
			t.Fatalf("pair (%d,%d) missing from quant store", src, dst)
		}
		gathered, err := quantSrv.ScoreVecLink(ctx, ru, rv)
		if err != nil {
			t.Fatal(err)
		}
		ref := model2.Edge.ScoreVec(ru.Floats(nil), rv.Floats(nil))
		if math.Abs(gathered-ref) > 1e-9*(1+math.Abs(ref)) {
			t.Fatalf("pair (%d,%d): quantDot %v vs dequantized reference %v", src, dst, gathered, ref)
		}
		if math.Float64bits(gathered) != math.Float64bits(b) {
			t.Fatalf("pair (%d,%d): ScoreVecLink %v != warm ScoreLink %v", src, dst, gathered, b)
		}
	}
	if st := quantSrv.Stats(); st.Warm == 0 || st.LinkWarm == 0 {
		t.Fatalf("quant server never served warm: %+v", st)
	}
}

// TestQuantWarmPathRaceStress hammers the quantized warm path from many
// goroutines while mutations invalidate rows — the -race exercise for the
// int8 fast path, the overlay re-admission flow, and their interaction.
func TestQuantWarmPathRaceStress(t *testing.T) {
	g, model, inf := testLinkGraph(t, gnn.EdgeHeadDot)
	mem, err := NewStore(0, inf.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	heapQuant, err := Quantize(mem)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 4}, model, g, openSaved(t, heapQuant, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	ids := g.IDs()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				src := ids[(w*31+i)%len(ids)]
				dst := ids[(w*17+i*7+1)%len(ids)]
				if _, err := srv.Score(ctx, src); err != nil {
					t.Errorf("Score: %v", err)
					return
				}
				if src != dst {
					if _, err := srv.ScoreLink(ctx, src, dst); err != nil {
						t.Errorf("ScoreLink: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		feat := make([]float64, g.FeatureDim())
		for i := 0; i < 20; i++ {
			id := ids[(i*13)%len(ids)]
			if _, err := srv.Apply(ctx, []graph.Mutation{graph.UpdateNodeFeat(id, feat)}); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestQuantFileFourTimesDenser: for the same rows, the q8 AGLSTOR1 file is
// at least 4x smaller than the f64 file once rows are 16 wide (a q8 row is
// its id, dim int8s and a float32 scale and zero point, against the id and
// dim float64s), and WriteTo reports exactly the file's size.
func TestQuantFileFourTimesDenser(t *testing.T) {
	for _, dim := range []int{16, 32, 64} {
		mem, err := NewStore(0, finiteEmbeddings(9, 1500, dim))
		if err != nil {
			t.Fatal(err)
		}
		quant, err := Quantize(mem)
		if err != nil {
			t.Fatal(err)
		}
		size := func(s *RowStore) int64 {
			fi, err := os.Stat(saveStore(t, s))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.WriteTo(io.Discard); err != nil || n != fi.Size() {
				t.Fatalf("WriteTo reports %d bytes (%v), the file holds %d", n, err, fi.Size())
			}
			return fi.Size()
		}
		f64, q8 := size(mem), size(quant)
		if density := float64(f64) / float64(q8); density < 4 {
			t.Fatalf("dim %d: f64 file %d bytes, q8 file %d bytes: %.2fx denser, want >= 4x", dim, f64, q8, density)
		} else {
			t.Logf("dim %d: %d -> %d bytes, %.2fx", dim, f64, q8, density)
		}
	}
}
