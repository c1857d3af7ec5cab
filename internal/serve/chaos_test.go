package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"agl/internal/rpcx"
)

// TestRoutedReadsBitExactUnderChaos routes every node's score, singly and in
// bulks of 16, and a run of pair scores through replica 0 while a seeded schedule drops 8% of its
// peer calls, delays all of them and duplicates 5%. Dropped calls surface as
// transport errors, so they exercise the idempotent retry and the breaker
// exactly as a flaky network would. Every answer must be bit-equal to the
// unsharded reference, and the schedule must have injected faults that the
// retries absorbed, so a pass cannot be vacuous.
func TestRoutedReadsBitExactUnderChaos(t *testing.T) {
	cl := buildCluster(t, 3)
	entry := cl.reps[0]
	ctx := context.Background()

	// Three drops in a row open a peer's breaker. Keep its cooldown short,
	// so waiting one out costs the test little.
	const cooldown = 50 * time.Millisecond
	ch := rpcx.NewChaos(77)
	for i, addr := range entry.Table().Replicas {
		if i == entry.ID() {
			continue
		}
		entry.peerClient(i).SetBreaker(rpcx.DefaultBreakerThreshold, cooldown)
		ch.Set(addr, rpcx.ChaosPolicy{
			Drop:        0.08,
			Delay:       200 * time.Microsecond,
			DelayJitter: 600 * time.Microsecond,
			Duplicate:   0.05,
		})
	}
	entry.SetChaos(ch)
	defer entry.SetChaos(nil)

	// A read that meets an open breaker fails fast with ErrPeerDown; a
	// client backs off for the cooldown and sends it again.
	read := func(what string, f func() error) {
		t.Helper()
		for attempt := 0; ; attempt++ {
			err := f()
			if err == nil {
				return
			}
			if !errors.Is(err, rpcx.ErrPeerDown) || attempt == 5 {
				t.Fatalf("%s under chaos: %v", what, err)
			}
			time.Sleep(2 * cooldown)
		}
	}

	for _, n := range cl.g.Nodes {
		want, err := cl.ref.Score(ctx, n.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		read("score", func() (err error) { got, err = entry.Score(ctx, n.ID); return })
		if !scoresEqual(got, want) {
			t.Fatalf("score(%d) under chaos = %v, reference %v", n.ID, got, want)
		}
	}
	for lo := 0; lo+16 <= len(cl.g.Nodes); lo += 16 {
		ids := make([]int64, 16)
		for k := range ids {
			ids[k] = cl.g.Nodes[lo+k].ID
		}
		want, _ := cl.ref.ScoreMany(ctx, ids)
		var got [][]float64
		// A peer's group fails as a whole; the client sends the bulk again.
		read("bulk", func() error {
			var errs []error
			got, errs = entry.ScoreMany(ctx, ids)
			return errors.Join(errs...)
		})
		for k := range ids {
			if !scoresEqual(got[k], want[k]) {
				t.Fatalf("bulk score(%d) under chaos = %v, reference %v", ids[k], got[k], want[k])
			}
		}
	}
	for i := 0; i+1 < len(cl.g.Nodes) && i < 120; i++ {
		u, v := cl.g.Nodes[i].ID, cl.g.Nodes[i+1].ID
		want, err := cl.ref.ScoreLink(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		read("link", func() (err error) { got, err = entry.ScoreLink(ctx, u, v); return })
		if got != want {
			t.Fatalf("link(%d,%d) under chaos = %v, reference %v", u, v, got, want)
		}
	}

	cs := entry.ClusterStats()
	t.Logf("%d faults injected, %d retries, %d breaker opens over %d forwarded reads",
		ch.Injected(), cs.ProxiedRetries, cs.BreakerOpens, cs.Forwards)
	if ch.Injected() == 0 || cs.ProxiedRetries == 0 {
		t.Fatalf("vacuous: %d faults injected, %d retries over %d forwarded reads",
			ch.Injected(), cs.ProxiedRetries, cs.Forwards)
	}
}
