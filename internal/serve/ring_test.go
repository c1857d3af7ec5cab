package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func randSample(rng *rand.Rand, i int) FlightSample {
	u32 := func() uint32 { return rng.Uint32() }
	return FlightSample{
		UnixNanos:  int64(1_700_000_000_000_000_000) + int64(i)*1_000_000_000,
		QueueDepth: u32(), BatchMax: u32(), Requests: u32(), CacheHits: u32(),
		Warm: u32(), Cold: u32(), Batches: u32(), Shed: u32(),
		Expired: u32(), Errors: u32(), WarmP50us: u32(), WarmP99us: u32(),
		ColdP50us: u32(), ColdP99us: u32(), DirtyRows: u32(), Applies: u32(),
		HeartbeatsMissed: u32(), Failovers: u32(), ProxiedRetries: u32(), BreakerOpens: u32(),
	}
}

// TestFlightSlotGolden pins the AGLFR002 slot layout byte for byte. A
// consistent reorder of the field table still round-trips, so only fixed
// bytes at fixed offsets catch it.
func TestFlightSlotGolden(t *testing.T) {
	s := FlightSample{
		UnixNanos:  0x1122334455667788,
		QueueDepth: 1, BatchMax: 2, Requests: 3, CacheHits: 4,
		Warm: 5, Cold: 6, Batches: 7, Shed: 8,
		Expired: 9, Errors: 10, WarmP50us: 11, WarmP99us: 12,
		ColdP50us: 13, ColdP99us: 14, DirtyRows: 15, Applies: 16,
		HeartbeatsMissed: 17, Failovers: 18, ProxiedRetries: 19, BreakerOpens: 20,
	}
	want, err := hex.DecodeString("8877665544332211" + // offset 0: unix_nanos
		"01000000" + "02000000" + "03000000" + "04000000" + // 8: queue_depth batch_max requests cache_hits
		"05000000" + "06000000" + "07000000" + "08000000" + // 24: warm cold batches shed
		"09000000" + "0a000000" + "0b000000" + "0c000000" + // 40: expired errors warm_p50_us warm_p99_us
		"0d000000" + "0e000000" + "0f000000" + "10000000" + // 56: cold_p50_us cold_p99_us dirty_rows applies
		"11000000" + "12000000" + "13000000" + "14000000") // 72: heartbeats_missed failovers proxied_retries breaker_opens
	if err != nil {
		t.Fatal(err)
	}
	var buf [flightSlotSize]byte
	s.encode(buf[:])
	if !bytes.Equal(buf[:], want) {
		t.Fatalf("slot bytes\n got %x\nwant %x", buf, want)
	}
	var back FlightSample
	back.decode(want)
	if back != s {
		t.Fatalf("golden slot decodes to %+v, want %+v", back, s)
	}
}

// TestCounterJSONKeys pins the wire names of the three counter types:
// bench/ decodes /stats and /cluster by them, CI greps them, and
// internal/e2e and aglmetrics -json decode flight samples by them.
func TestCounterJSONKeys(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys string
	}{
		{Stats{}, "Applies Batches CacheHits Cold ColdPending Collapsed DirtyRows Errors Expired " +
			"Invalidated LinkCold LinkRequests LinkWarm Mutations Readmitted Requests Shed Version Warm"},
		{ClusterStats{}, "AuthSeq BreakerOpens ConsensusOn Epoch EpochRejects Failovers FanoutErrors " +
			"Forwards HeartbeatsMissed OwnedSlots PausedMs ProxiedRetries RaftIsLeader RaftLeader RaftTerm ReplicaID"},
		{FlightSample{}, "applies batch_max batches breaker_opens cache_hits cold cold_p50_us cold_p99_us " +
			"dirty_rows errors expired failovers heartbeats_missed proxied_retries queue_depth requests shed " +
			"unix_nanos warm warm_p50_us warm_p99_us"},
	} {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != tc.keys {
			t.Fatalf("%T JSON keys\n got %s\nwant %s", tc.v, got, tc.keys)
		}
	}
}

// TestFlightRingRoundTripBitExact writes more samples than the ring holds
// and asserts the file decode is bit-for-bit identical to the in-memory
// ring: every field of every retained sample, oldest-first, after wrap.
func TestFlightRingRoundTripBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.aglfr")
	const capacity, appended = 7, 23
	ring, err := NewFlightRing(capacity, path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var all []FlightSample
	for i := 0; i < appended; i++ {
		s := randSample(rng, i)
		all = append(all, s)
		if err := ring.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	want := all[appended-capacity:]
	if got := ring.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-memory ring diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file decode diverged from appended samples:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlightRingPartialFill covers the pre-wrap case: fewer samples than
// slots must decode to exactly the appended prefix, not garbage slots.
func TestFlightRingPartialFill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.aglfr")
	ring, err := NewFlightRing(16, path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var all []FlightSample
	for i := 0; i < 3; i++ {
		s := randSample(rng, i)
		all = append(all, s)
		if err := ring.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("partial ring decode diverged:\n got %+v\nwant %+v", got, all)
	}
}

// TestFlightRingLiveRead reads the file while the ring is still open —
// the post-incident case where the server is wedged but not dead.
func TestFlightRingLiveRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.aglfr")
	ring, err := NewFlightRing(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6; i++ {
		if err := ring.Append(randSample(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ring.Samples()) {
		t.Fatal("live read diverged from in-memory ring")
	}
}

func TestReadFlightFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.aglfr")
	if err := os.WriteFile(bad, []byte("NOTAFLIGHTFILE_________________________"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightFile(bad); err == nil {
		t.Fatal("garbage file decoded without error")
	}
	short := filepath.Join(dir, "short.aglfr")
	if err := os.WriteFile(short, []byte(flightMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightFile(short); err == nil {
		t.Fatal("truncated header decoded without error")
	}
}

func TestLatHistPercentiles(t *testing.T) {
	var h latHist
	for i := 0; i < 99; i++ {
		h.observe(100) // bucket [64,128) -> upper bound 128
	}
	h.observe(100_000) // one outlier in [65536,131072)
	if p50 := h.percentile(0.50); p50 != 128 {
		t.Fatalf("p50 = %d, want 128", p50)
	}
	if p99 := h.percentile(0.99); p99 != 131072 {
		t.Fatalf("p99 = %d, want 131072 (the outlier's bucket bound)", p99)
	}
	h.reset()
	if got := h.percentile(0.99); got != 0 {
		t.Fatalf("percentile after reset = %d, want 0", got)
	}
}

// flightImage returns the bytes of a flight file written by a ring of the
// given capacity after n appends.
func flightImage(t testing.TB, capacity, n int) ([]byte, []FlightSample) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flight.aglfr")
	ring, err := NewFlightRing(capacity, path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		if err := ring.Append(randSample(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := ring.Samples()
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// oversizedFlight is a bare 32-byte header that claims count slots.
func oversizedFlight(count uint32) []byte {
	hdr := make([]byte, flightHdrSize)
	copy(hdr, flightMagic)
	binary.LittleEndian.PutUint32(hdr[8:], flightSlotSize)
	binary.LittleEndian.PutUint32(hdr[12:], count)
	binary.LittleEndian.PutUint64(hdr[flightSeqOff:], uint64(count))
	return hdr
}

// TestReadFlightFileBoundsCountByFileSize: a 32-byte file whose header
// claims 1<<24 slots must be refused before ~1.4 GiB is allocated for them.
func TestReadFlightFileBoundsCountByFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.aglfr")
	if err := os.WriteFile(path, oversizedFlight(1<<24), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFlightFile(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header-only file claiming 1<<24 slots decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("refusing a %d-byte file allocated %d bytes", flightHdrSize, got)
	}
}

// FuzzReadFlightFile: the decoder never panics on arbitrary bytes and never
// returns more samples than the input has room for; the seeds, files the
// ring wrote before and after wrapping, decode to the ring's samples.
func FuzzReadFlightFile(f *testing.F) {
	for _, n := range []int{0, 3, 5, 8} {
		data, want := flightImage(f, 5, n)
		got, err := readFlight(bytes.NewReader(data), int64(len(data)), "ring image")
		if err != nil || len(got) != len(want) || n > 0 && !reflect.DeepEqual(got, want) {
			f.Fatalf("ring of 5 after %d appends decoded to %d samples (%v), want %d", n, len(got), err, len(want))
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add(oversizedFlight(1 << 24))
	f.Add(oversizedFlight(1<<32 - 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := readFlight(bytes.NewReader(data), int64(len(data)), "fuzz image")
		if err != nil {
			return
		}
		if len(samples)*flightSlotSize > len(data) {
			t.Fatalf("%d samples decoded from %d bytes", len(samples), len(data))
		}
	})
}
