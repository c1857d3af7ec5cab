package serve

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
