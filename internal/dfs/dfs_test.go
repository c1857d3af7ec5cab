package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d, err := Create(filepath.Join(t.TempDir(), "ds"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma")}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records != 3 {
		t.Fatalf("Records=%d", w.Records)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], recs[0]) || len(got[1]) != 0 || !bytes.Equal(got[2], recs[2]) {
		t.Fatalf("ReadAll: %q", got)
	}
}

func TestMultiplePartsOrdered(t *testing.T) {
	d, _ := Create(filepath.Join(t.TempDir(), "ds"))
	for i := 2; i >= 0; i-- { // write out of order
		w, err := d.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte(fmt.Sprintf("part%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	parts, err := d.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts: %v", parts)
	}
	got, _ := d.ReadAll()
	for i := 0; i < 3; i++ {
		if string(got[i]) != fmt.Sprintf("part%d", i) {
			t.Fatalf("part order: %q", got)
		}
	}
}

func TestAbortLeavesNothingVisible(t *testing.T) {
	d, _ := Create(filepath.Join(t.TempDir(), "ds"))
	w, _ := d.Writer(0)
	_ = w.Append([]byte("junk"))
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	parts, _ := d.Parts()
	if len(parts) != 0 {
		t.Fatalf("aborted part visible: %v", parts)
	}
}

func TestUncommittedTmpIgnored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d, _ := Create(dir)
	// Simulate a crashed task: stage but never close.
	w, _ := d.Writer(0)
	_ = w.Append([]byte("half-written"))
	_ = w.bw.Flush()
	// Leave the tmp file around.
	parts, _ := d.Parts()
	if len(parts) != 0 {
		t.Fatalf("tmp file listed as part: %v", parts)
	}
	recs, err := d.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("tmp contents leaked: %q err=%v", recs, err)
	}
}

// writeParts commits part file i holding parts[i]'s records.
func writeParts(t *testing.T, d *Dir, parts ...[][]byte) {
	t.Helper()
	for i, recs := range parts {
		w, err := d.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanStopsOnError(t *testing.T) {
	d, _ := Create(filepath.Join(t.TempDir(), "ds"))
	writeParts(t, d, [][]byte{{1}}, [][]byte{{2}}, [][]byte{{3}})
	parts, _ := d.Parts()
	count := 0
	err := ScanParts(parts, func(rec []byte) error {
		count++
		if rec[0] == 2 {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
	if err != io.ErrUnexpectedEOF || count != 2 {
		t.Fatalf("err=%v count=%d", err, count)
	}
}

// encodeParts frames records the way PartWriter does.
func encodeParts(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.AppendUvarint(out, uint64(len(r)))
		out = append(out, r...)
	}
	return out
}

// readPart decodes a raw part file: its records and the error that ended
// the read (io.EOF for a clean end).
func readPart(t testing.TB, raw []byte) ([][]byte, error) {
	path := filepath.Join(t.TempDir(), "part-00000")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPart(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs [][]byte
	for {
		rec, err := r.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// TestCorruptLengthIsBoundedByFile: a length prefix claiming more bytes
// than the file holds fails typed, before anything that size is allocated.
func TestCorruptLengthIsBoundedByFile(t *testing.T) {
	for name, raw := range map[string][]byte{
		"huge":      binary.AppendUvarint(nil, 1<<62),
		"one over":  append(encodeParts([]byte("ok")), 4, 'a', 'b', 'c'),
		"truncated": {0x80},
		"overflow":  bytes.Repeat([]byte{0xff}, 11),
	} {
		recs, err := readPart(t, raw)
		if !errors.Is(err, ErrCorruptPart) {
			t.Fatalf("%s: err=%v, want ErrCorruptPart", name, err)
		}
		if name == "one over" && (len(recs) != 1 || string(recs[0]) != "ok") {
			t.Fatalf("%s: records before the damage: %q", name, recs)
		}
	}
}

// FuzzPartReader: any byte string read as a part file ends in io.EOF or
// ErrCorruptPart, never a panic, never more record bytes than the file
// holds, and a cleanly read file re-encodes to itself when its prefixes
// are canonical.
func FuzzPartReader(f *testing.F) {
	f.Add(encodeParts([]byte("alpha"), []byte(""), []byte("gamma")))
	f.Add(encodeParts([]byte("part0"), []byte("part1"), []byte("part2")))
	f.Add(encodeParts([]byte{1}, []byte{2}, []byte{3}))
	f.Add(encodeParts(make([]byte, 300)))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := readPart(t, raw)
		if err != io.EOF && !errors.Is(err, ErrCorruptPart) {
			t.Fatalf("untyped error %v", err)
		}
		total := 0
		for _, r := range recs {
			total += len(r)
		}
		if total > len(raw) {
			t.Fatalf("%d record bytes from a %d-byte file", total, len(raw))
		}
		if re := encodeParts(recs...); err == io.EOF && len(re) == len(raw) && !bytes.Equal(re, raw) {
			t.Fatalf("re-encoding differs: %x vs %x", re, raw)
		}
	})
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing dir")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("expected error for non-directory")
	}
}

func TestRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d, _ := Create(dir)
	writeParts(t, d, [][]byte{{1}})
	if err := d.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("directory still exists")
	}
}

func TestLargeRecords(t *testing.T) {
	d, _ := Create(filepath.Join(t.TempDir(), "ds"))
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	w, _ := d.Writer(0)
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAll()
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatal("large record corrupted")
	}
}

// TestWriteFileIsAtomic: a write function that fails half-way leaves the
// old file intact and no staged file behind; one that succeeds replaces
// the file whole.
func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.agl")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		// More than the staging buffer, so part of it reaches the file.
		if _, err := w.Write(bytes.Repeat([]byte("x"), 1<<17)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile err = %v, want the write function's", err)
	}
	assertDirHolds(t, dir, path, "old contents")

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new contents")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertDirHolds(t, dir, path, "new contents")
}

// assertDirHolds checks that dir holds exactly path, with the given
// contents.
func assertDirHolds(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s (a staged file was left behind)", names, filepath.Base(path))
	}
}
