// Package dfs simulates the distributed file system AGL's pipelines write
// to: a dataset is a directory of numbered part files, each a stream of
// length-prefixed records. Writers stage to a temp file and commit with an
// atomic rename, mirroring the commit discipline of real DFS writers so a
// failed (retried) task never leaves a partial part visible.
package dfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// Dir is a dataset directory of part files.
type Dir struct {
	path string
}

// Create makes (or reuses) a dataset directory.
func Create(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: create %s: %w", path, err)
	}
	return &Dir{path: path}, nil
}

// Open opens an existing dataset directory.
func Open(path string) (*Dir, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: open %s: %w", path, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("dfs: %s is not a directory", path)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Parts lists committed part files in order.
func (d *Dir) Parts() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "part-") && !strings.HasSuffix(name, ".tmp") {
			out = append(out, filepath.Join(d.path, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes the dataset directory and all parts.
func (d *Dir) Remove() error { return os.RemoveAll(d.path) }

// PartWriter writes length-prefixed records to one part file.
type PartWriter struct {
	f       *os.File
	bw      *bufio.Writer
	tmp     string
	final   string
	lenBuf  [binary.MaxVarintLen64]byte
	Records int
	Bytes   int64
}

// Writer opens a staged writer for part number idx. Commit is atomic on
// Close; abandoning the writer (process death, task retry) leaves only a
// .tmp file that readers ignore.
func (d *Dir) Writer(idx int) (*PartWriter, error) {
	final := filepath.Join(d.path, fmt.Sprintf("part-%05d", idx))
	tmp := final + fmt.Sprintf(".%d.tmp", os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("dfs: stage part %d: %w", idx, err)
	}
	return &PartWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), tmp: tmp, final: final}, nil
}

// Append writes one record.
func (w *PartWriter) Append(rec []byte) error {
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(rec)))
	if _, err := w.bw.Write(w.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(rec); err != nil {
		return err
	}
	w.Records++
	w.Bytes += int64(n + len(rec))
	return nil
}

// Close flushes, fsyncs and atomically commits the part.
func (w *PartWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return os.Rename(w.tmp, w.final)
}

// Abort discards the staged part without committing.
func (w *PartWriter) Abort() error {
	w.f.Close()
	return os.Remove(w.tmp)
}

// WriteFile atomically replaces the file at path with what write writes:
// the bytes are staged in a temporary file in the same directory, flushed,
// fsynced, closed and renamed over path. On any error the staged file is
// removed and path is left as it was, so a crash or a failed write never
// leaves a truncated file behind.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	tmp := fmt.Sprintf("%s.%d.%d.tmp", path, os.Getpid(), stageSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("dfs: stage %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// stageSeq numbers WriteFile's staged files, so concurrent writes of one
// path in a process never share one.
var stageSeq atomic.Int64

// ErrCorruptPart marks a part file whose framing is damaged: a truncated
// or overlong length prefix, or a record longer than the bytes left in the
// file.
var ErrCorruptPart = errors.New("dfs: corrupt part file")

// PartReader iterates the records of one part file.
type PartReader struct {
	f    *os.File
	br   *bufio.Reader
	left int64 // bytes of the file not yet consumed
}

// OpenPart opens a committed part file for reading.
func OpenPart(path string) (*PartReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: open part: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dfs: open part: %w", err)
	}
	return &PartReader{f: f, br: bufio.NewReaderSize(f, 1<<16), left: st.Size()}, nil
}

// Next returns the next record, or io.EOF when exhausted. A record is
// never allocated beyond the bytes left in the file, so a damaged length
// prefix fails with ErrCorruptPart instead of exhausting memory.
func (r *PartReader) Next() ([]byte, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: record length: %w", ErrCorruptPart, err)
	}
	// PartWriter writes canonical prefixes; a longer one only loosens the
	// bound, and its short body then fails below.
	var pre [binary.MaxVarintLen64]byte
	r.left -= int64(binary.PutUvarint(pre[:], n))
	if r.left < 0 || n > uint64(r.left) {
		return nil, fmt.Errorf("%w: record of %d bytes with %d left in the file", ErrCorruptPart, n, max(r.left, 0))
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, fmt.Errorf("%w: record body: %w", ErrCorruptPart, err)
	}
	r.left -= int64(n)
	return buf, nil
}

// Close releases the underlying file.
func (r *PartReader) Close() error { return r.f.Close() }

// ReadAll loads every record from every part, in part order.
func (d *Dir) ReadAll() ([][]byte, error) {
	parts, err := d.Parts()
	if err != nil {
		return nil, err
	}
	var out [][]byte
	if err := ScanParts(parts, func(rec []byte) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanParts streams every record of the part files at paths, in order, to
// fn, stopping on the first error from a read or from fn.
func ScanParts(paths []string, fn func(rec []byte) error) error {
	for _, p := range paths {
		r, err := OpenPart(p)
		if err != nil {
			return err
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = fn(rec)
			}
			if err != nil {
				r.Close()
				return err
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}
