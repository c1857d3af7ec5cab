package consensus

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// flakyFile fails its failAt-th WriteAt the way a full disk does: half the
// bytes land, then the error. With noTruncate the rollback fails too.
type flakyFile struct {
	*os.File
	failAt, writes int
	noTruncate     bool
}

var errDiskFull = errors.New("no space left on device")

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, errDiskFull
	}
	return f.File.WriteAt(p, off)
}

func (f *flakyFile) Truncate(size int64) error {
	if f.noTruncate {
		return errDiskFull
	}
	return f.File.Truncate(size)
}

// TestWALShortWriteKeepsLaterRecords fails the k-th record write part-way,
// keeps appending, and reopens: every record that was acknowledged without
// error must be replayed. (A torn record left in the middle of the file would
// hide everything appended behind it, because replay stops at the first bad
// record.)
func TestWALShortWriteKeepsLaterRecords(t *testing.T) {
	for _, noTruncate := range []bool{false, true} {
		for k := 1; k <= 7; k++ {
			path := filepath.Join(t.TempDir(), "flaky.wal")
			w, _, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			w.f = &flakyFile{File: w.f.(*os.File), failAt: k, noTruncate: noTruncate}

			var want walState
			failed := 0
			for i := uint64(1); i <= 6; i++ {
				if i == 4 { // a vote in the middle of the log
					if err := w.saveMeta(9, "node-2"); err == nil {
						want.term, want.vote = 9, "node-2"
					} else {
						failed++
					}
				}
				e := Entry{Index: i, Term: 3, Cmd: bytes.Repeat([]byte{byte(i)}, int(i)*5)}
				if err := w.appendEntry(e); err == nil {
					want.log = append(want.log, e)
				} else {
					failed++
				}
			}
			syncErr := w.sync()
			w.Close()

			switch {
			case noTruncate:
				// The tear could not be cut off: the WAL must refuse
				// everything after it rather than write behind it.
				if failed != 8-k || syncErr == nil {
					t.Fatalf("k=%d: %d appends failed and sync returned %v after an unrecoverable tear, want %d and an error",
						k, failed, syncErr, 8-k)
				}
			case failed != 1 || syncErr != nil:
				t.Fatalf("k=%d: %d appends failed, sync returned %v; want exactly the injected failure", k, failed, syncErr)
			}

			w2, got, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			w2.Close()
			if !sameState(got, want) {
				t.Fatalf("k=%d noTruncate=%v: replayed %+v, acknowledged %+v", k, noTruncate, got, want)
			}
		}
	}
}

// TestWALFailureStopsNode: a node whose WAL write fails must not grant the
// vote it could not persist, and afterwards acknowledges no append and
// refuses proposals. failAt 1 fails the term change the request causes,
// failAt 2 the vote itself; failAt 0 never fails and the vote is granted.
func TestWALFailureStopsNode(t *testing.T) {
	for _, failAt := range []int{0, 1, 2} {
		n, err := New(Config{
			ID: "a", Peers: []string{"a", "b"}, Transport: newMemTransport(),
			WALPath: filepath.Join(t.TempDir(), "a.wal"), ElectionTimeoutMin: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		n.wal.f = &flakyFile{File: n.wal.f.(*os.File), failAt: failAt}
		n.mu.Unlock()

		var vote VoteReply
		n.HandleRequestVote(&VoteArgs{Term: 1, Candidate: "b"}, &vote)
		if vote.Granted != (failAt == 0) {
			t.Fatalf("failAt %d: vote granted = %v", failAt, vote.Granted)
		}
		if failAt > 0 {
			var app AppendReply
			n.HandleAppendEntries(&AppendArgs{Term: 1, Leader: "b", Entries: []Entry{{Index: 1, Term: 1}}}, &app)
			if app.Success {
				t.Fatalf("failAt %d: a stopped node acknowledged an append", failAt)
			}
			err := n.Propose(context.Background(), []byte("x"))
			if !errors.Is(err, ErrClosed) || !errors.Is(err, errDiskFull) {
				t.Fatalf("failAt %d: Propose on a stopped node returned %v", failAt, err)
			}
		}
		n.Close()
	}
}

// sameState compares replayed states, taking a nil and an empty log or
// command as equal.
func sameState(a, b walState) bool {
	if a.term != b.term || a.vote != b.vote || len(a.log) != len(b.log) {
		return false
	}
	for i, e := range a.log {
		if e.Index != b.log[i].Index || e.Term != b.log[i].Term || !bytes.Equal(e.Cmd, b.log[i].Cmd) {
			return false
		}
	}
	return true
}

// memFile is a WAL file held in memory.
type memFile struct{ b []byte }

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if grow := int(off) + len(p) - len(m.b); grow > 0 {
		m.b = append(m.b, make([]byte, grow)...)
	}
	return copy(m.b[off:], p), nil
}
func (m *memFile) Truncate(size int64) error { m.b = m.b[:size]; return nil }
func (m *memFile) Sync() error               { return nil }
func (m *memFile) Close() error              { return nil }

// walImage returns the bytes of a WAL that holds st.
func walImage(t testing.TB, st walState) []byte {
	t.Helper()
	var m memFile
	w := &wal{f: &m}
	if err := w.saveMeta(st.term, st.vote); err != nil {
		t.Fatal(err)
	}
	for _, e := range st.log {
		if err := w.appendEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	return m.b
}

// oversizedWAL is a header that claims the largest record replay accepts,
// followed by four bytes.
func oversizedWAL() []byte {
	data := make([]byte, walHdrSize+4)
	binary.LittleEndian.PutUint32(data, maxWALRecord)
	return data
}

// allocatedBytes reports how many heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayWALBoundsLengthByFileSize: a 12-byte file whose header asks for
// 64 MiB is a torn tail, and replay must not allocate what it asks for.
func TestReplayWALBoundsLengthByFileSize(t *testing.T) {
	data := oversizedWAL()
	var goodEnd int64
	got := allocatedBytes(func() {
		_, goodEnd, _ = replayWAL(bytes.NewReader(data), int64(len(data)))
	})
	if goodEnd != 0 {
		t.Fatalf("goodEnd = %d, want 0", goodEnd)
	}
	if got > 1<<16 {
		t.Fatalf("replaying a %d-byte file allocated %d bytes", len(data), got)
	}
}

// FuzzReplayWAL: replay never panics on arbitrary bytes, stops inside the
// input, and what it accepted is a WAL of its own — replaying the accepted
// prefix, and a WAL rewritten from the recovered state, both give the same
// state back.
func FuzzReplayWAL(f *testing.F) {
	seed := walState{term: 7, vote: "node-1"}
	for i := 1; i <= 5; i++ {
		seed.log = append(seed.log, Entry{Index: uint64(i), Term: 7, Cmd: bytes.Repeat([]byte{byte(i)}, i)})
	}
	good := walImage(f, seed)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(oversizedWAL())
	f.Fuzz(func(t *testing.T, data []byte) {
		st, goodEnd, err := replayWAL(bytes.NewReader(data), int64(len(data)))
		if goodEnd < 0 || goodEnd > int64(len(data)) {
			t.Fatalf("goodEnd %d outside the %d-byte input", goodEnd, len(data))
		}
		if err != nil {
			return // an intact record of an unknown shape: openWAL refuses the file
		}
		st2, end2, err := replayWAL(bytes.NewReader(data[:goodEnd]), goodEnd)
		if err != nil || end2 != goodEnd || !sameState(st2, st) {
			t.Fatalf("the accepted prefix replays to (%+v, %d, %v), the input to (%+v, %d)", st2, end2, err, st, goodEnd)
		}
		re := walImage(t, st)
		st3, end3, err := replayWAL(bytes.NewReader(re), int64(len(re)))
		if err != nil || end3 != int64(len(re)) || !sameState(st3, st) {
			t.Fatalf("a WAL rewritten from %+v replays to (%+v, %d of %d, %v)", st, st3, end3, len(re), err)
		}
	})
}
