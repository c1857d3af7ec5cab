package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"agl/internal/dfs"
)

// Split streams the pairs of one input split.
type Split func(yield func(kv KeyValue) error) error

// Input provides the job's pairs partitioned into map splits. An input of
// raw records (MemInput, DFSInput) hands each record over as the value of a
// pair with an empty key.
type Input interface {
	Splits(n int) ([]Split, error)
}

// MemInput serves in-memory raw records, chunked into n splits.
type MemInput [][]byte

// Splits implements Input.
func (m MemInput) Splits(n int) ([]Split, error) {
	return chunks(m, n, func(rec []byte) KeyValue { return KeyValue{Value: rec} }), nil
}

// Pairs serves in-memory pairs as they are, chunked into n splits: how one
// round's MemOutput becomes the next round's input.
type Pairs []KeyValue

// Splits implements Input.
func (p Pairs) Splits(n int) ([]Split, error) {
	return chunks(p, n, func(kv KeyValue) KeyValue { return kv }), nil
}

// chunks cuts items into at most n contiguous splits, so split order is
// input order; no items are one empty split.
func chunks[T any](items []T, n int, pair func(T) KeyValue) []Split {
	n = max(min(n, len(items)), 1)
	chunk := max((len(items)+n-1)/n, 1)
	var out []Split
	for lo := 0; lo < len(items) || lo == 0; lo += chunk {
		part := items[lo:min(lo+chunk, len(items))]
		out = append(out, func(yield func(KeyValue) error) error {
			for _, it := range part {
				if err := yield(pair(it)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return out
}

// DFSInput serves the raw records of a dfs dataset; each part file is a
// split (merging small parts when there are more parts than requested
// splits).
type DFSInput struct{ Dir *dfs.Dir }

// Splits implements Input.
func (d DFSInput) Splits(n int) ([]Split, error) {
	parts, err := d.Dir.Parts()
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return []Split{func(func(KeyValue) error) error { return nil }}, nil
	}
	n = max(min(n, len(parts)), 1)
	groups := make([][]string, n)
	for i, p := range parts {
		groups[i%n] = append(groups[i%n], p)
	}
	var out []Split
	for _, g := range groups {
		out = append(out, func(yield func(KeyValue) error) error {
			return dfs.ScanParts(g, func(rec []byte) error { return yield(KeyValue{Value: rec}) })
		})
	}
	return out, nil
}

// DFSPairs serves the pairs DFSOutput wrote to a dfs dataset, split as
// DFSInput splits it.
type DFSPairs struct{ Dir *dfs.Dir }

// Splits implements Input.
func (d DFSPairs) Splits(n int) ([]Split, error) {
	return mapSplits(DFSInput(d), n, func(rec KeyValue, yield func(KeyValue) error) error {
		kv, err := DecodeKV(rec.Value)
		if err != nil {
			return err
		}
		return yield(kv)
	})
}

// Filter is the view of In that holds only the pairs Keep accepts, split as
// In splits and in In's order.
type Filter struct {
	In   Input
	Keep func(KeyValue) bool
}

// Splits implements Input.
func (f Filter) Splits(n int) ([]Split, error) {
	return mapSplits(f.In, n, func(kv KeyValue, yield func(KeyValue) error) error {
		if !f.Keep(kv) {
			return nil
		}
		return yield(kv)
	})
}

// mapSplits passes every pair of in's splits through f.
func mapSplits(in Input, n int, f func(kv KeyValue, yield func(KeyValue) error) error) ([]Split, error) {
	splits, err := in.Splits(n)
	if err != nil {
		return nil, err
	}
	out := make([]Split, len(splits))
	for i, s := range splits {
		out[i] = func(yield func(KeyValue) error) error {
			return s(func(kv KeyValue) error { return f(kv, yield) })
		}
	}
	return out, nil
}

// Concat reads its inputs one after another: each is split n ways, and its
// splits follow those of the inputs before it, so a key's values reach the
// reducer in Concat order.
type Concat []Input

// Splits implements Input.
func (c Concat) Splits(n int) ([]Split, error) {
	var out []Split
	for _, in := range c {
		s, err := in.Splits(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// PartOutput receives one reduce task's emitted pairs. Write order within a
// task is preserved; Commit publishes atomically, Abort discards.
type PartOutput interface {
	Write(kv KeyValue) error
	Commit() error
	Abort() error
}

// Output creates per-reduce-task writers.
type Output interface {
	PartWriter(part int) (PartOutput, error)
}

// MemOutput collects reduce output in memory, grouped by part.
type MemOutput struct {
	mu    sync.Mutex
	parts map[int][]KeyValue
}

// NewMemOutput builds an empty in-memory output.
func NewMemOutput() *MemOutput { return &MemOutput{parts: make(map[int][]KeyValue)} }

type memPartWriter struct {
	out  *MemOutput
	part int
	buf  []KeyValue
}

// PartWriter implements Output.
func (m *MemOutput) PartWriter(part int) (PartOutput, error) {
	return &memPartWriter{out: m, part: part}, nil
}

func (w *memPartWriter) Write(kv KeyValue) error {
	w.buf = append(w.buf, kv)
	return nil
}

func (w *memPartWriter) Commit() error {
	w.out.mu.Lock()
	defer w.out.mu.Unlock()
	w.out.parts[w.part] = w.buf
	return nil
}

func (w *memPartWriter) Abort() error {
	w.buf = nil
	return nil
}

// Pairs returns all collected pairs in part order.
func (m *MemOutput) Pairs() []KeyValue {
	m.mu.Lock()
	defer m.mu.Unlock()
	var parts []int
	for p := range m.parts {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var out []KeyValue
	for _, p := range parts {
		out = append(out, m.parts[p]...)
	}
	return out
}

// DFSOutput writes each reduce task's pairs, framed with EncodeKV, to a dfs
// part file.
type DFSOutput struct{ Dir *dfs.Dir }

type dfsPartWriter struct{ w *dfs.PartWriter }

// PartWriter implements Output.
func (d DFSOutput) PartWriter(part int) (PartOutput, error) {
	w, err := d.Dir.Writer(part)
	if err != nil {
		return nil, err
	}
	return &dfsPartWriter{w: w}, nil
}

func (w *dfsPartWriter) Write(kv KeyValue) error { return w.w.Append(EncodeKV(kv)) }
func (w *dfsPartWriter) Commit() error           { return w.w.Close() }
func (w *dfsPartWriter) Abort() error            { return w.w.Abort() }

// EncodeKV frames a KeyValue as one record: varint keylen, key, value.
func EncodeKV(kv KeyValue) []byte {
	buf := make([]byte, 0, len(kv.Key)+len(kv.Value)+4)
	buf = binary.AppendUvarint(buf, uint64(len(kv.Key)))
	buf = append(buf, kv.Key...)
	buf = append(buf, kv.Value...)
	return buf
}

// DecodeKV reverses EncodeKV. The returned value aliases rec.
func DecodeKV(rec []byte) (KeyValue, error) {
	klen, n := binary.Uvarint(rec)
	if n <= 0 || int(klen)+n > len(rec) {
		return KeyValue{}, fmt.Errorf("mapreduce: malformed kv record")
	}
	return KeyValue{
		Key:   string(rec[n : n+int(klen)]),
		Value: rec[n+int(klen):],
	}, nil
}

// ---- spill files ----

// spillWriter streams sorted pairs to a spill file; sortByKey, its one
// caller's sort, gives the k-way merge its non-decreasing keys.
type spillWriter struct {
	f     *os.File
	bw    *bufio.Writer
	total int64
}

func newSpillWriter(path string) (*spillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (w *spillWriter) append(kv KeyValue) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(kv.Key)))
	w.bw.Write(lenBuf[:n])
	w.bw.WriteString(kv.Key)
	n2 := binary.PutUvarint(lenBuf[:], uint64(len(kv.Value)))
	w.bw.Write(lenBuf[:n2])
	if _, err := w.bw.Write(kv.Value); err != nil {
		return err
	}
	w.total += int64(n + len(kv.Key) + n2 + len(kv.Value))
	return nil
}

func (w *spillWriter) close() (int64, error) {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return 0, err
	}
	return w.total, w.f.Close()
}

func (w *spillWriter) abort() { w.f.Close() }

// spillReader streams one sorted spill file. Its key and value buffers are
// reused across advance calls — per-record memory is O(largest record),
// not O(records) — so cur's contents are only valid until the next
// advance.
type spillReader struct {
	f    *os.File
	br   *bufio.Reader
	key  []byte // current key, reused buffer
	val  []byte // current value, reused buffer
	done bool
}

func openSpill(path string) (*spillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &spillReader{f: f, br: bufio.NewReaderSize(f, 1<<16)}
	if err := r.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// growBuf returns buf resized to n, reusing its backing array when large
// enough.
func growBuf(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func (r *spillReader) advance() error {
	klen, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		r.done = true
		return nil
	}
	if err != nil {
		return err
	}
	r.key = growBuf(r.key, int(klen))
	if _, err := io.ReadFull(r.br, r.key); err != nil {
		return err
	}
	vlen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return err
	}
	r.val = growBuf(r.val, int(vlen))
	if _, err := io.ReadFull(r.br, r.val); err != nil {
		return err
	}
	return nil
}

func (r *spillReader) close() { r.f.Close() }

// merger performs a k-way merge over sorted spills and yields key groups
// as lazy iterators — no group is ever materialized in one slice.
type merger struct {
	readers  []*spillReader
	groupKey []byte // reusable copy of the current group's key bytes
	// onGroupDone, when set, observes each group's total streamed value
	// bytes (for Stats.PeakGroupBytes).
	onGroupDone func(groupBytes int64)
}

func mergeSpills(files []string) (*merger, error) {
	m := &merger{}
	for _, f := range files {
		r, err := openSpill(f)
		if err != nil {
			for _, rr := range m.readers {
				rr.close()
			}
			return nil, err
		}
		m.readers = append(m.readers, r)
	}
	return m, nil
}

// groupIter streams one key group straight out of the merge. Values come
// in deterministic order — spill (map task) index first, then emit order
// within the task — and each value aliases the owning spillReader's
// reusable buffer, so it is valid only until the next Next call.
type groupIter struct {
	m       *merger
	idx     int          // reader currently being drained
	pending *spillReader // reader whose cur value was handed out last Next
	bytes   int64
	err     error
	done    bool
}

func (g *groupIter) Next() ([]byte, bool) {
	if g.done || g.err != nil {
		return nil, false
	}
	if g.pending != nil {
		if err := g.pending.advance(); err != nil {
			g.err = err
			return nil, false
		}
		g.pending = nil
	}
	for g.idx < len(g.m.readers) {
		r := g.m.readers[g.idx]
		if !r.done && bytes.Equal(r.key, g.m.groupKey) {
			// Hand the value out now; advance lazily on the next call so
			// the buffer stays intact while the caller reads it.
			g.pending = r
			g.bytes += int64(len(r.val))
			return r.val, true
		}
		g.idx++
	}
	g.done = true
	return nil, false
}

func (g *groupIter) Err() error { return g.err }

// drain exhausts whatever the reducer left unconsumed so the merge can
// move to the next group.
func (g *groupIter) drain() error {
	for {
		if _, ok := g.Next(); !ok {
			return g.err
		}
	}
}

// forEachGroup calls fn once per distinct key, in ascending key order,
// with a lazy iterator over that key's values. The iterator is only valid
// for the duration of fn.
func (m *merger) forEachGroup(fn func(key string, values ValueIter) error) error {
	defer func() {
		for _, r := range m.readers {
			r.close()
		}
	}()
	for {
		// Find the minimum live key. Linear scan is fine: the reader count
		// equals the map-task count, which is small.
		var minKey []byte
		found := false
		for _, r := range m.readers {
			if r.done {
				continue
			}
			if !found || bytes.Compare(r.key, minKey) < 0 {
				minKey = r.key
				found = true
			}
		}
		if !found {
			return nil
		}
		// Copy the key out of the winning reader's buffer: the group
		// iterator advances that reader while the group is consumed.
		m.groupKey = append(m.groupKey[:0], minKey...)
		g := &groupIter{m: m}
		if err := fn(string(m.groupKey), g); err != nil {
			return err
		}
		if err := g.drain(); err != nil {
			return err
		}
		if m.onGroupDone != nil {
			m.onGroupDone(g.bytes)
		}
	}
}
