package consensus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The WAL is the node's durability: current term + vote and the log
// itself survive a crash, which is what makes a granted vote binding
// and a committed entry permanent. The format is a flat sequence of
// length-prefixed, CRC-checked records:
//
//	[u32 len][u32 crc32(payload)][payload]
//
// payload = [u8 kind] + kind-specific fixed-width fields. Three kinds:
// meta (term, votedFor — rewritten on every term/vote change), entry
// (index, term, cmd — appended as the log grows), truncate (index —
// entries >= index are discarded, the conflict-overwrite path). Replay
// folds the sequence back into (term, vote, log); a torn tail (short or
// CRC-failing final record, the artifact of dying mid-write) is
// tolerated by stopping replay there. There is no compaction: the FSM
// is a placement table whose writes are operator-rare (migrations,
// failovers), so the file stays tiny for the lifetime of a deployment.
type wal struct {
	f walFile
	// end is the offset one past the last intact record, where the next
	// one is written.
	end int64
	// err latches a failed record that could not be cut off again: every
	// later append and sync returns it.
	err error
}

// walFile is what the WAL needs of its file: an *os.File, or a test's
// fault-injecting wrapper around one.
type walFile interface {
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

const (
	walKindMeta  = 1
	walKindEntry = 2
	walKindTrunc = 3

	walHdrSize   = 8
	maxWALRecord = 1 << 26
)

// walState is what replay recovers.
type walState struct {
	term uint64
	vote string
	log  []Entry
}

// openWAL opens (creating if absent) and replays the WAL at path.
func openWAL(path string) (*wal, walState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, walState{}, fmt.Errorf("consensus: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, walState{}, fmt.Errorf("consensus: stat wal: %w", err)
	}
	st, goodEnd, err := replayWAL(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, walState{}, err
	}
	// Drop a torn tail so new records append onto a clean boundary.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, walState{}, fmt.Errorf("consensus: trim wal tail: %w", err)
	}
	return &wal{f: f, end: goodEnd}, st, nil
}

// replayWAL scans the records of a size-byte WAL from its start, returning
// the recovered state and the offset of the last intact record boundary.
func replayWAL(r io.Reader, size int64) (walState, int64, error) {
	var st walState
	var off int64
	hdr := make([]byte, walHdrSize)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return st, off, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// A length the file cannot hold is a torn or corrupt tail, and is
		// never allocated.
		if n == 0 || n > maxWALRecord || int64(n) > size-off-walHdrSize {
			return st, off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return st, off, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return st, off, nil
		}
		if err := applyWALRecord(&st, payload); err != nil {
			return st, off, err
		}
		off += walHdrSize + int64(n)
	}
}

// applyWALRecord folds one intact payload into the replay state.
func applyWALRecord(st *walState, p []byte) error {
	if len(p) < 1 {
		return errors.New("consensus: empty wal record")
	}
	switch p[0] {
	case walKindMeta:
		if len(p) < 11 {
			return errors.New("consensus: short meta record")
		}
		st.term = binary.LittleEndian.Uint64(p[1:9])
		vl := int(binary.LittleEndian.Uint16(p[9:11]))
		if len(p) < 11+vl {
			return errors.New("consensus: short meta vote")
		}
		st.vote = string(p[11 : 11+vl])
	case walKindEntry:
		if len(p) < 21 {
			return errors.New("consensus: short entry record")
		}
		e := Entry{
			Index: binary.LittleEndian.Uint64(p[1:9]),
			Term:  binary.LittleEndian.Uint64(p[9:17]),
		}
		cl := int(binary.LittleEndian.Uint32(p[17:21]))
		if len(p) < 21+cl {
			return errors.New("consensus: short entry cmd")
		}
		if cl > 0 {
			e.Cmd = append([]byte(nil), p[21:21+cl]...)
		}
		// Self-healing append: an entry at an existing index implies the
		// suffix from there was overwritten (normally preceded by a
		// truncate record, but robust without one).
		for len(st.log) > 0 && st.log[len(st.log)-1].Index >= e.Index {
			st.log = st.log[:len(st.log)-1]
		}
		st.log = append(st.log, e)
	case walKindTrunc:
		if len(p) < 9 {
			return errors.New("consensus: short truncate record")
		}
		from := binary.LittleEndian.Uint64(p[1:9])
		for len(st.log) > 0 && st.log[len(st.log)-1].Index >= from {
			st.log = st.log[:len(st.log)-1]
		}
	default:
		return fmt.Errorf("consensus: unknown wal record kind %d", p[0])
	}
	return nil
}

// writeRecord appends one framed record (no fsync; callers batch then
// sync once). Header and payload go out in one write. A write that fails
// part-way (disk full) leaves a torn record, and replay stops at the first
// one it meets, so a record written behind it would be lost: the tear is
// cut off before the error is returned, and the next record lands where
// this one would have.
func (w *wal) writeRecord(payload []byte) error {
	if w == nil {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	rec := make([]byte, walHdrSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walHdrSize:], payload)
	if _, err := w.f.WriteAt(rec, w.end); err != nil {
		if terr := w.f.Truncate(w.end); terr != nil {
			w.err = fmt.Errorf("consensus: wal failed: write: %v; cutting off the torn record: %w", err, terr)
		}
		return err
	}
	w.end += int64(len(rec))
	return nil
}

// saveMeta records the current term and vote.
func (w *wal) saveMeta(term uint64, vote string) error {
	p := make([]byte, 11+len(vote))
	p[0] = walKindMeta
	binary.LittleEndian.PutUint64(p[1:9], term)
	binary.LittleEndian.PutUint16(p[9:11], uint16(len(vote)))
	copy(p[11:], vote)
	return w.writeRecord(p)
}

// appendEntry records one log entry.
func (w *wal) appendEntry(e Entry) error {
	p := make([]byte, 21+len(e.Cmd))
	p[0] = walKindEntry
	binary.LittleEndian.PutUint64(p[1:9], e.Index)
	binary.LittleEndian.PutUint64(p[9:17], e.Term)
	binary.LittleEndian.PutUint32(p[17:21], uint32(len(e.Cmd)))
	copy(p[21:], e.Cmd)
	return w.writeRecord(p)
}

// truncateFrom records that entries with Index >= from are discarded.
func (w *wal) truncateFrom(from uint64) error {
	p := make([]byte, 9)
	p[0] = walKindTrunc
	binary.LittleEndian.PutUint64(p[1:9], from)
	return w.writeRecord(p)
}

// sync flushes to stable storage — the point a vote or entry becomes
// binding.
func (w *wal) sync() error {
	if w == nil {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return w.f.Sync()
}

// Close releases the file.
func (w *wal) Close() error {
	if w == nil {
		return nil
	}
	return w.f.Close()
}
