package serve

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agl/internal/core"
	"agl/internal/graph"
)

// hardenedServer builds a server where the first half of the graph's nodes
// are warm (in the store) and the second half are cold, with a tiny
// admission cap so overload is easy to provoke.
func hardenedServer(t *testing.T, cfg Config) (*Server, []int64, []int64) {
	t.Helper()
	g, model, res := testGraph(t)
	ids := make([]int64, 0, len(res.Embeddings))
	for id := range res.Embeddings {
		ids = append(ids, id)
	}
	warm := make(map[int64][]float64, len(ids)/2)
	var warmIDs, coldIDs []int64
	for i, id := range ids {
		if i%2 == 0 {
			warm[id] = res.Embeddings[id]
			warmIDs = append(warmIDs, id)
		} else {
			coldIDs = append(coldIDs, id)
		}
	}
	store, err := NewStore(0, warm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, warmIDs, coldIDs
}

// TestOverloadShedsColdNeverWarm saturates the cold path far past the
// admission cap while warm traffic runs concurrently, and asserts the
// overload contract: cold requests shed explicitly (ShedError unwrapping
// ErrOverloaded, with a usable retry hint), warm requests always succeed,
// and the admission gauge returns to zero when the storm passes. Run it
// with -race: the shed path, inline warm path, and batcher all overlap.
func TestOverloadShedsColdNeverWarm(t *testing.T) {
	srv, warmIDs, coldIDs := hardenedServer(t, Config{
		Seed: 1, MaxBatch: 4, ShedThreshold: 2,
		FlightInterval: -1, // recorder off: this test is about admission
	})

	// Phase 1: hold both admission slots so the cold path is saturated for
	// the whole storm — deterministically, not at the scheduler's whim.
	for i := 0; i < 2; i++ {
		if err := srv.adm.admit(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var shedCount atomic.Int64
	half := len(coldIDs) / 2
	for _, id := range coldIDs[:half] {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			_, err := srv.Score(context.Background(), id)
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("cold node %d at full saturation: err = %v, want ErrOverloaded", id, err)
				return
			}
			var shed *ShedError
			if !errors.As(err, &shed) {
				t.Errorf("overloaded error is not a *ShedError: %v", err)
				return
			}
			if shed.RetryAfter <= 0 {
				t.Errorf("shed with non-positive RetryAfter: %+v", shed)
			}
			if shed.Limit != 2 {
				t.Errorf("shed reports limit %d, want 2", shed.Limit)
			}
			shedCount.Add(1)
		}(id)
	}
	// Warm traffic throughout the storm: must never shed, never fail.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := warmIDs[(w*50+i)%len(warmIDs)]
				if _, err := srv.Score(context.Background(), id); err != nil {
					t.Errorf("warm node %d failed under cold overload: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.adm.release()
	srv.adm.release()

	st := srv.Stats()
	if got := shedCount.Load(); got != int64(half) {
		t.Fatalf("%d/%d cold requests shed at full saturation, want all", got, half)
	}
	if st.Shed != shedCount.Load() {
		t.Fatalf("Stats.Shed = %d, callers saw %d", st.Shed, shedCount.Load())
	}
	if st.Warm == 0 {
		t.Fatal("no warm requests recorded")
	}

	// Phase 2: saturation lifted — the same traffic is admitted again and
	// the pending gauge returns to zero once it drains.
	for _, id := range coldIDs[half:] {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			if _, err := srv.Score(context.Background(), id); err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("cold node %d after release: unexpected error %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	st = srv.Stats()
	if st.Cold == 0 {
		t.Fatal("no cold request was admitted after saturation lifted")
	}
	if st.ColdPending != 0 {
		t.Fatalf("ColdPending = %d after traffic drained, want 0", st.ColdPending)
	}
}

// TestExpiredDroppedBeforeForwardPass drives the batcher's deadline triage
// directly: a call whose deadline has already passed must resolve
// ErrExpired without the forward pass running for it, while its live
// batchmate is served normally.
func TestExpiredDroppedBeforeForwardPass(t *testing.T) {
	srv, _, coldIDs := hardenedServer(t, Config{Seed: 1, FlightInterval: -1})

	dead := &call{id: coldIDs[0], done: make(chan struct{}), enq: time.Now()}
	dead.deadline.Store(time.Now().Add(-time.Millisecond).UnixNano())
	live := &call{id: coldIDs[1], done: make(chan struct{}), enq: time.Now()}
	live.deadline.Store(noDeadline)

	coldBefore := srv.cold.Load()
	srv.process([]*call{dead, live})

	if !errors.Is(dead.err, ErrExpired) || !errors.Is(dead.err, context.DeadlineExceeded) {
		t.Fatalf("expired call err = %v, want ErrExpired (a context.DeadlineExceeded)", dead.err)
	}
	if dead.scores != nil {
		t.Fatal("expired call was scored anyway")
	}
	if live.err != nil || live.scores == nil {
		t.Fatalf("live batchmate: err=%v scores=%v", live.err, live.scores)
	}
	if got := srv.cold.Load() - coldBefore; got != 1 {
		t.Fatalf("cold counter advanced by %d, want 1 (expired call must not reach the forward pass)", got)
	}
	if srv.expired.Load() != 1 {
		t.Fatalf("expired counter = %d, want 1", srv.expired.Load())
	}
}

// TestNoResultServedPastDeadline issues cold requests with deadlines far
// shorter than a cold computation and asserts none ever returns a score —
// whichever way the race between compute and deadline lands, the caller
// gets a deadline error, never a late success.
func TestNoResultServedPastDeadline(t *testing.T) {
	srv, _, coldIDs := hardenedServer(t, Config{Seed: 1, FlightInterval: -1})
	for _, id := range coldIDs[:20] {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Microsecond)
		scores, err := srv.Score(ctx, id)
		cancel()
		if err == nil || scores != nil {
			t.Fatalf("node %d: served past a 10µs deadline (err=%v)", id, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("node %d: err = %v, want context.DeadlineExceeded", id, err)
		}
	}
}

// TestWarmStaysInlineUnderColdSaturation pins the architectural guarantee
// behind graceful overload: a warm request completes without ever
// entering the cold queue, so it cannot be stuck behind a saturated
// batcher. We saturate admission completely (threshold 1, slow cold work
// outstanding) and require warm scoring to still finish quickly.
func TestWarmStaysInlineUnderColdSaturation(t *testing.T) {
	srv, warmIDs, coldIDs := hardenedServer(t, Config{
		Seed: 1, MaxBatch: 1, ShedThreshold: 1,
		FlightInterval: -1,
	})
	// Keep the single admission slot permanently busy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Score(context.Background(), coldIDs[i%len(coldIDs)])
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for i, id := range warmIDs {
		if _, err := srv.Score(context.Background(), id); err != nil {
			t.Fatalf("warm node %d failed: %v", id, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm traffic crawled: only %d/%d served in 10s under cold saturation", i+1, len(warmIDs))
		}
	}
	close(stop)
	wg.Wait()
	if st := srv.Stats(); st.Warm < int64(len(warmIDs)) {
		t.Fatalf("Warm = %d, want >= %d (inline path must not be bypassed)", st.Warm, len(warmIDs))
	}
}

// TestFlightRecorderCoversTraffic runs mixed traffic, some of it shed, with
// a fast recorder and asserts the dump parses, spans the run, and its
// counter totals agree with the server's own accounting.
func TestFlightRecorderCoversTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.aglfr")
	srv, warmIDs, coldIDs := hardenedServer(t, Config{
		Seed: 1, ShedThreshold: 2,
		FlightPath: path, FlightInterval: 5 * time.Millisecond,
	})
	start := time.Now()
	// Hold both admission slots: these cold requests are shed.
	for i := 0; i < 2; i++ {
		if err := srv.adm.admit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range coldIDs[10:15] {
		if _, err := srv.Score(context.Background(), id); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("cold node %d with admission full: err = %v, want ErrOverloaded", id, err)
		}
	}
	srv.adm.release()
	srv.adm.release()
	for i := 0; i < 3; i++ {
		for _, id := range warmIDs[:30] {
			if _, err := srv.Score(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range coldIDs[:10] {
			if _, err := srv.Score(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(12 * time.Millisecond)
	}
	elapsed := time.Since(start)
	st := srv.Stats()
	srv.Close() // appends the final sample and closes the file

	samples, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("only %d samples for a %s run at 5ms interval", len(samples), elapsed)
	}
	span := time.Duration(samples[len(samples)-1].UnixNanos - samples[0].UnixNanos)
	if span <= 0 {
		t.Fatalf("samples do not advance in time: span %s", span)
	}
	var reqs, warm, cold, shed int64
	for _, s := range samples {
		reqs += int64(s.Requests)
		warm += int64(s.Warm)
		cold += int64(s.Cold)
		shed += int64(s.Shed)
	}
	if shed != 5 || shed != st.Shed {
		t.Fatalf("flight sheds total %d, server counted %d, callers saw 5", shed, st.Shed)
	}
	if reqs != st.Requests+st.LinkRequests {
		t.Fatalf("flight requests total %d != served %d", reqs, st.Requests+st.LinkRequests)
	}
	if warm != st.Warm+st.LinkWarm || cold != st.Cold+st.LinkCold {
		t.Fatalf("flight warm/cold %d/%d != stats %d/%d", warm, cold, st.Warm, st.Cold)
	}
	if got := srv.Flight(); len(got) != len(samples) {
		t.Fatalf("in-memory ring has %d samples, file %d", len(got), len(samples))
	}
}

// TestServeConfigValidationError table-tests the typed validation errors:
// every rejected ServeConfig field surfaces as a *core.ValidationError with
// the qualified public field name, so callers can branch programmatically.
func TestServeConfigValidationError(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Hops: -1}, "ServeConfig.Hops"},
		{Config{MaxNeighbors: -1}, "ServeConfig.MaxNeighbors"},
		{Config{CacheSize: -1}, "ServeConfig.CacheSize"},
		{Config{MaxBatch: -1}, "ServeConfig.MaxBatch"},
		{Config{MaxWait: -time.Second}, "ServeConfig.MaxWait"},
		{Config{MaxWait: 200 * time.Microsecond}, "ServeConfig.MaxWait"},
		{Config{ShedThreshold: -1}, "ServeConfig.ShedThreshold"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: invalid config accepted", tc.field)
		}
		var verr *core.ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("%s: error %T is not a *core.ValidationError", tc.field, err)
		}
		if verr.Field != tc.field {
			t.Fatalf("Field = %q, want %q", verr.Field, tc.field)
		}
		if verr.Reason == "" {
			t.Fatalf("%s: empty Reason", tc.field)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	// A sub-millisecond linger is refused with the reason: the timer would
	// fire ~1ms late anyway. 1ms itself is a real linger.
	if err := (Config{MaxWait: 50 * time.Microsecond}).Validate(); err == nil || !strings.Contains(err.Error(), "timers fire about 1ms late") {
		t.Fatalf("MaxWait 50us: err = %v, want the timer-granularity reason", err)
	}
	if err := (Config{MaxWait: time.Millisecond}).Validate(); err != nil {
		t.Fatalf("MaxWait 1ms rejected: %v", err)
	}
}

// TestApplyContext covers the context-first Apply: a cancelled context
// aborts before committing, a live one commits normally.
func TestApplyContext(t *testing.T) {
	g, model, res := testGraph(t)
	store, err := NewStore(0, res.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Seed: 1, FlightInterval: -1}, model, g, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Apply(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply with cancelled ctx: err = %v, want context.Canceled", err)
	}

	feat := make([]float64, g.FeatureDim())
	for i := range feat {
		feat[i] = float64(i)
	}
	ar, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(0, feat)})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 1 {
		t.Fatalf("Apply applied %d, want 1", ar.Applied)
	}
}
