package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// waitStats polls until cond holds on a stats snapshot; the event it waits
// for is a registration the test itself started, so the poll always ends.
func waitStats(t *testing.T, srv *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, srv.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestScoreManyColdBulkIsOneBatch: every cold id of a bulk is registered
// before the first is sent, so the batcher folds all 32 into one forward
// pass — on every run, not when the scheduler happens to allow it.
func TestScoreManyColdBulkIsOneBatch(t *testing.T) {
	cfg := Config{Seed: 1, MaxBatch: 64, FlightInterval: -1}
	srv, _, coldIDs := hardenedServer(t, cfg)
	ref, _, _ := hardenedServer(t, cfg)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		ids := coldIDs[round*32 : (round+1)*32]
		before := srv.Stats()
		scores, errs := srv.ScoreMany(ctx, ids)
		after := srv.Stats()
		if d := after.Batches - before.Batches; d != 1 {
			t.Fatalf("round %d: 32 cold ids took %d batches, want 1", round, d)
		}
		if d := after.Cold - before.Cold; d != 32 {
			t.Fatalf("round %d: %d cold passes for 32 cold ids", round, d)
		}
		for i, id := range ids {
			if errs[i] != nil {
				t.Fatalf("node %d: %v", id, errs[i])
			}
			want, err := ref.Score(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			// A forward pass over 32 merged neighbourhoods sums in another
			// order than a pass over one: equal within the cold contract.
			if len(scores[i]) != len(want) || math.Abs(scores[i][0]-want[0]) > 1e-9 {
				t.Fatalf("node %d: bulk score %v, single score %v", id, scores[i], want)
			}
		}
	}
}

// TestScoreManyWarmBulkStaysInline: a bulk the cache and the store can
// answer never reaches the batcher and costs the two result slices, not a
// goroutine, a closure and a semaphore slot per id.
func TestScoreManyWarmBulkStaysInline(t *testing.T) {
	srv, warmIDs, _ := hardenedServer(t, Config{Seed: 1, FlightInterval: -1})
	ctx := context.Background()
	ids := warmIDs[:32]

	before := srv.Stats()
	if _, errs := srv.ScoreMany(ctx, ids); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	after := srv.Stats()
	if after.Warm-before.Warm != 32 || after.Batches != before.Batches || after.Cold != before.Cold {
		t.Fatalf("warm bulk reached the batcher: %+v -> %+v", before, after)
	}

	// Now all 32 are cached.
	allocs := testing.AllocsPerRun(50, func() { srv.ScoreMany(ctx, ids) })
	if allocs > 4 {
		t.Fatalf("cached bulk of 32 allocates %.0f times, want the result slices only", allocs)
	}
	last := srv.Stats()
	if last.CacheHits-after.CacheHits < 32*50 || last.Batches != before.Batches {
		t.Fatalf("cached bulk did not stay in the cache: %+v -> %+v", after, last)
	}
}

// TestScoreManyEdgeInputs: an empty bulk is empty, and a repeated id is
// computed once and answered at each of its positions.
func TestScoreManyEdgeInputs(t *testing.T) {
	srv, warmIDs, coldIDs := hardenedServer(t, Config{Seed: 1, FlightInterval: -1})
	ctx := context.Background()

	scores, errs := srv.ScoreMany(ctx, nil)
	if len(scores) != 0 || len(errs) != 0 || srv.Stats().Requests != 0 {
		t.Fatalf("empty bulk: %d scores, %d errors, %d requests", len(scores), len(errs), srv.Stats().Requests)
	}

	a, b, w := coldIDs[0], coldIDs[1], warmIDs[0]
	ids := []int64{a, w, a, b, w, a}
	scores, errs = srv.ScoreMany(ctx, ids)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != 6 || st.Cold != 2 || st.Collapsed != 2 || st.Warm != 1 || st.CacheHits != 1 {
		t.Fatalf("duplicates were not folded: %+v", st)
	}
	for i, id := range ids {
		for j := range ids[:i] {
			if ids[j] == id && !scoresEqual(scores[i], scores[j]) {
				t.Fatalf("node %d answered %v at %d and %v at %d", id, scores[j], j, scores[i], i)
			}
		}
	}
}

// TestScoreManyWindowBoundsAdmitted: with the default admission cap, one
// bulk of any size never sheds itself — which it would if it ever held
// more than 4*MaxBatch calls at once.
func TestScoreManyWindowBoundsAdmitted(t *testing.T) {
	srv, _, coldIDs := hardenedServer(t, Config{Seed: 1, MaxBatch: 4, FlightInterval: -1})
	if srv.cfg.ShedThreshold != 16 {
		t.Fatalf("ShedThreshold = %d, want 4*MaxBatch", srv.cfg.ShedThreshold)
	}
	ids := coldIDs[:100]
	_, errs := srv.ScoreMany(context.Background(), ids)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Shed != 0 || st.Cold != 100 || st.ColdPending != 0 {
		t.Fatalf("bulk of 100 over a window of 16: %+v", st)
	}
}

// TestScoreManyWindowIsAdmissionCap: an admission cap below 4*MaxBatch
// (aglserve -shed 4) still serves a cold bulk of 20 on an idle server
// without shedding any of it: the bulk registers at most the cap at once.
func TestScoreManyWindowIsAdmissionCap(t *testing.T) {
	srv, _, coldIDs := hardenedServer(t, Config{Seed: 1, ShedThreshold: 4, FlightInterval: -1})
	_, errs := srv.ScoreMany(context.Background(), coldIDs[:20])
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Shed != 0 || st.Cold != 20 || st.ColdPending != 0 {
		t.Fatalf("bulk of 20 under an admission cap of 4: %+v", st)
	}
}

// TestScoreManyCancelFailsOnlyCaller: a bulk whose caller gives up fails
// at its own positions only. The computation another request shares with
// it, and the ones it registered alone, still complete.
func TestScoreManyCancelFailsOnlyCaller(t *testing.T) {
	// The linger keeps registered calls in flight long enough to cancel.
	cfg := Config{Seed: 1, MaxWait: 300 * time.Millisecond, FlightInterval: -1}
	srv, _, coldIDs := hardenedServer(t, cfg)
	ref, _, _ := hardenedServer(t, Config{Seed: 1, FlightInterval: -1})
	shared, own := coldIDs[0], coldIDs[1:4]

	type answer struct {
		scores []float64
		err    error
	}
	other := make(chan answer, 1)
	go func() {
		s, err := srv.Score(context.Background(), shared)
		other <- answer{s, err}
	}()
	waitStats(t, srv, "the other request's registration", func(s Stats) bool { return s.ColdPending == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	bulk := make(chan []error, 1)
	go func() {
		_, errs := srv.ScoreMany(ctx, append([]int64{shared}, own...))
		bulk <- errs
	}()
	waitStats(t, srv, "the bulk's registrations", func(s Stats) bool { return s.ColdPending == 4 && s.Collapsed == 1 })
	cancel()
	for i, err := range <-bulk {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("position %d after cancel: %v, want context.Canceled", i, err)
		}
	}

	got := <-other
	if got.err != nil {
		t.Fatalf("request sharing a call with the cancelled bulk: %v", got.err)
	}
	want, err := ref.Score(context.Background(), shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.scores) != len(want) || math.Abs(got.scores[0]-want[0]) > 1e-9 {
		t.Fatalf("shared call answered %v, want %v", got.scores, want)
	}
	waitStats(t, srv, "the abandoned calls to complete", func(s Stats) bool { return s.Cold == 4 && s.ColdPending == 0 })
}

// TestScoreManyCloseYieldsErrClosed: Close during concurrent bulks resolves
// every position with a score, a shed (eight bulks share a cap of 16) or
// ErrClosed — never a hang — and afterwards every position is ErrClosed.
func TestScoreManyCloseYieldsErrClosed(t *testing.T) {
	srv, warmIDs, coldIDs := hardenedServer(t, Config{Seed: 1, MaxBatch: 4, FlightInterval: -1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ids := append(append([]int64(nil), coldIDs[(w*8+i)%64:][:24]...), warmIDs[:8]...)
				scores, errs := srv.ScoreMany(context.Background(), ids)
				for k := range ids {
					if errs[k] == nil && len(scores[k]) == 0 ||
						errs[k] != nil && !errors.Is(errs[k], ErrClosed) && !errors.Is(errs[k], ErrOverloaded) {
						t.Errorf("position %d during Close: scores %v, err %v", k, scores[k], errs[k])
					}
				}
			}
		}(w)
	}
	srv.Close()
	wg.Wait()
	_, errs := srv.ScoreMany(context.Background(), coldIDs[:40])
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("position %d after Close: %v, want ErrClosed", i, err)
		}
	}
}
