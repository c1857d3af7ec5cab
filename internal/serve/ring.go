package serve

// Flight recorder: an ftdc-style fixed-size ring of per-interval counter
// samples, always on and cheap enough to never turn off (88 bytes/second).
// The ring lives in memory and, when a path is configured, is mirrored to a
// fixed-size binary file slot-by-slot so a crashed or wedged process leaves
// behind the last N intervals for post-hoc diagnosis without logs.
//
// File layout (little-endian):
//
//	offset 0   magic   "AGLFR002" (8 bytes)
//	offset 8   slotSize  uint32   (bytes per sample, currently 88)
//	offset 12  slotCount uint32   (ring capacity)
//	offset 16  writeSeq  uint64   (total samples ever appended)
//	offset 24  reserved  8 bytes  (zero)
//	offset 32  slots     slotCount * slotSize bytes
//
// Slot i holds sample writeSeq' where writeSeq' % slotCount == i; the oldest
// retained sample is writeSeq-slotCount (when the ring has wrapped). Each
// slot write is a single WriteAt followed by a WriteAt of the header seq, so
// a torn final slot is detectable (its UnixNanos predates its neighbors) but
// never corrupts older samples.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"
)

const (
	flightMagic    = "AGLFR002"
	flightHdrSize  = 32
	flightSlotSize = 88
	flightSeqOff   = 16
)

// FlightSample is one interval of serving-tier counters. Counter fields are
// deltas of the Server's Stats and the Replica's ClusterStats over the
// interval; gauge fields (QueueDepth, DirtyRows) are sampled at interval
// end. Latency percentiles are in microseconds, computed from a
// per-interval histogram (power-of-two buckets, so values are upper bounds
// accurate to 2x — good enough for flight-recorder triage).
type FlightSample struct {
	UnixNanos  int64  `json:"unix_nanos"`  // sample timestamp
	QueueDepth uint32 `json:"queue_depth"` // cold requests admitted but not completed (gauge)
	BatchMax   uint32 `json:"batch_max"`   // largest batch drained this interval
	Requests   uint32 `json:"requests"`    // Score/ScoreLink calls entering the server
	CacheHits  uint32 `json:"cache_hits"`
	Warm       uint32 `json:"warm"`
	Cold       uint32 `json:"cold"`
	Batches    uint32 `json:"batches"` // batches processed
	Shed       uint32 `json:"shed"`    // requests rejected by admission control
	Expired    uint32 `json:"expired"` // requests dropped from a batch past their deadline
	Errors     uint32 `json:"errors"`  // requests that failed for any other reason
	WarmP50us  uint32 `json:"warm_p50_us"`
	WarmP99us  uint32 `json:"warm_p99_us"`
	ColdP50us  uint32 `json:"cold_p50_us"`
	ColdP99us  uint32 `json:"cold_p99_us"`
	DirtyRows  uint32 `json:"dirty_rows"` // warm rows (store or overlay-only) marked dirty, Stats.DirtyRows (gauge)
	Applies    uint32 `json:"applies"`    // mutation batches applied

	// Cluster-health counters (zero outside cluster mode).
	HeartbeatsMissed uint32 `json:"heartbeats_missed"` // peers seen suspect/dead by the failure detector
	Failovers        uint32 `json:"failovers"`         // committed failover tables
	ProxiedRetries   uint32 `json:"proxied_retries"`   // idempotent proxied-read retry attempts
	BreakerOpens     uint32 `json:"breaker_opens"`     // per-peer circuit-breaker open transitions
}

// slots is the AGLFR002 slot layout after the timestamp: one uint32 per
// field, in this order. encode and decode both walk it, and its length is
// fixed by flightSlotSize.
func (s *FlightSample) slots() [(flightSlotSize - 8) / 4]*uint32 {
	return [...]*uint32{
		&s.QueueDepth, &s.BatchMax, &s.Requests, &s.CacheHits,
		&s.Warm, &s.Cold, &s.Batches, &s.Shed,
		&s.Expired, &s.Errors, &s.WarmP50us, &s.WarmP99us,
		&s.ColdP50us, &s.ColdP99us, &s.DirtyRows, &s.Applies,
		&s.HeartbeatsMissed, &s.Failovers, &s.ProxiedRetries, &s.BreakerOpens,
	}
}

func (s *FlightSample) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.UnixNanos))
	for i, p := range s.slots() {
		binary.LittleEndian.PutUint32(buf[8+4*i:], *p)
	}
}

func (s *FlightSample) decode(buf []byte) {
	s.UnixNanos = int64(binary.LittleEndian.Uint64(buf[0:]))
	for i, p := range s.slots() {
		*p = binary.LittleEndian.Uint32(buf[8+4*i:])
	}
}

// FlightRing is the in-memory ring plus its optional file mirror. All
// methods are safe for concurrent use; Append is called by the server's
// recorder goroutine, Samples by /metrics handlers and tests.
type FlightRing struct {
	mu    sync.Mutex
	slots []FlightSample
	seq   uint64 // total appended
	f     *os.File
	buf   [flightSlotSize]byte
}

// NewFlightRing creates a ring with the given capacity, mirrored to path
// when path is non-empty (the file is created or truncated and sized up
// front, so disk usage is fixed for the life of the process).
func NewFlightRing(capacity int, path string) (*FlightRing, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("serve: flight ring capacity must be > 0, got %d", capacity)
	}
	r := &FlightRing{slots: make([]FlightSample, capacity)}
	if path != "" {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("serve: create flight file: %w", err)
		}
		hdr := make([]byte, flightHdrSize)
		copy(hdr, flightMagic)
		binary.LittleEndian.PutUint32(hdr[8:], flightSlotSize)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(capacity))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: write flight header: %w", err)
		}
		if err := f.Truncate(int64(flightHdrSize + capacity*flightSlotSize)); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: size flight file: %w", err)
		}
		r.f = f
	}
	return r, nil
}

// Append records one sample, overwriting the slot of the sample
// capacity intervals ago once the ring has wrapped.
func (r *FlightRing) Append(s FlightSample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := int(r.seq % uint64(len(r.slots)))
	r.slots[i] = s
	r.seq++
	if r.f == nil {
		return nil
	}
	s.encode(r.buf[:])
	if _, err := r.f.WriteAt(r.buf[:], int64(flightHdrSize+i*flightSlotSize)); err != nil {
		return fmt.Errorf("serve: write flight slot: %w", err)
	}
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], r.seq)
	if _, err := r.f.WriteAt(seq[:], flightSeqOff); err != nil {
		return fmt.Errorf("serve: write flight seq: %w", err)
	}
	return nil
}

// Len reports how many samples are currently retained.
func (r *FlightRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.slots)) {
		return int(r.seq)
	}
	return len(r.slots)
}

// Seq reports the total number of samples ever appended.
func (r *FlightRing) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Samples returns the retained samples oldest-first.
func (r *FlightRing) Samples() []FlightSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	out := make([]FlightSample, 0, n)
	start := uint64(0)
	if r.seq > n {
		start = r.seq - n
	}
	for s := start; s < r.seq; s++ {
		out = append(out, r.slots[s%n])
	}
	return out
}

// Close syncs and closes the file mirror, if any.
func (r *FlightRing) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Sync()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.f = nil
	return err
}

// ReadFlightFile decodes a flight-recorder file into oldest-first samples.
// It tolerates a live writer: the header seq is read once and slots decoded
// from the resulting window, so a concurrent Append can at worst make the
// newest sample appear twice-written (same slot, newer content) — never a
// decode error.
func ReadFlightFile(path string) ([]FlightSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readFlight(f, fi.Size(), path)
}

// readFlight decodes a size-byte flight file from its start. The slot count
// in the header is bounded by what size can hold before anything is
// allocated for it.
func readFlight(r io.Reader, size int64, path string) ([]FlightSample, error) {
	hdr := make([]byte, flightHdrSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("serve: flight header: %w", err)
	}
	if err := retiredFormat("flight file "+path, hdr); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != flightMagic {
		return nil, fmt.Errorf("serve: not a flight file (magic %q)", hdr[:8])
	}
	slotSize := binary.LittleEndian.Uint32(hdr[8:])
	count := binary.LittleEndian.Uint32(hdr[12:])
	seq := binary.LittleEndian.Uint64(hdr[16:])
	if slotSize != flightSlotSize {
		return nil, fmt.Errorf("serve: flight slot size %d unsupported (want %d)", slotSize, flightSlotSize)
	}
	if count == 0 || int64(count) > (size-flightHdrSize)/flightSlotSize {
		return nil, fmt.Errorf("serve: flight slot count %d out of range for a %d-byte file", count, size)
	}
	ss := int(slotSize)
	raw := make([]byte, int(count)*ss)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("serve: flight slots: %w", err)
	}
	n := uint64(count)
	start := uint64(0)
	if seq > n {
		start = seq - n
	}
	out := make([]FlightSample, 0, seq-start)
	for s := start; s < seq; s++ {
		var fs FlightSample
		i := int(s%n) * ss
		fs.decode(raw[i : i+ss])
		out = append(out, fs)
	}
	return out, nil
}

// latHist is a lock-free-enough latency histogram with power-of-two
// microsecond buckets, reset each flight interval. Callers hold the
// server's stats mutex (flightMu) around observe/snapshot.
type latHist struct {
	buckets [32]uint32 // bucket i counts latencies in [2^i, 2^(i+1)) µs
	count   uint32
}

func (h *latHist) observe(us int64) {
	if us < 1 {
		us = 1
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.count++
}

// percentile returns an upper bound on the q-quantile (q in [0,1]) in µs.
func (h *latHist) percentile(q float64) uint32 {
	if h.count == 0 {
		return 0
	}
	rank := uint32(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint32
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			return uint32(1) << uint(i+1) // bucket upper bound
		}
	}
	return 1 << 31
}

func (h *latHist) reset() { *h = latHist{} }
