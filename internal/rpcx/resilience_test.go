package rpcx

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"agl/internal/clockx"
)

// deadAddr returns an address nothing listens on (bound then released,
// so the port was recently free and connects are refused fast).
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// breakerOpen reports whether calls would currently fail fast.
func breakerOpen(c *Client) bool {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.bThreshold <= 0 || c.bOpenUntil.IsZero() {
		return false
	}
	return c.clock().Now().Before(c.bOpenUntil)
}

// TestBreakerOpensAndFailsFast: after threshold consecutive transport
// failures the breaker opens and subsequent calls return PeerDownError
// without dialing; after the cooldown a probe is admitted.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	addr := deadAddr(t)
	c := NewClient(addr)
	defer c.Close()
	clk := clockx.NewFake()
	c.SetClock(clk)
	c.SetBreaker(3, time.Second)

	ctx := context.Background()
	var reply EchoReply
	for i := 0; i < 3; i++ {
		err := c.Call(ctx, "Echo.Echo", &EchoArgs{S: "x"}, &reply)
		if !IsTransport(err) {
			t.Fatalf("call %d: want transport error, got %v", i, err)
		}
	}
	if !breakerOpen(c) {
		t.Fatal("breaker should be open after 3 transport failures")
	}
	if got := c.BreakerOpens(); got != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", got)
	}

	dialsBefore := c.Dials()
	err := c.Call(ctx, "Echo.Echo", &EchoArgs{S: "x"}, &reply)
	var pd *PeerDownError
	if !errors.As(err, &pd) || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open breaker: want PeerDownError, got %v", err)
	}
	if pd.Addr != addr || pd.RetryAfter <= 0 {
		t.Fatalf("PeerDownError = %+v", pd)
	}
	if c.Dials() != dialsBefore {
		t.Fatal("open breaker dialed anyway")
	}

	// Cooldown elapses; a server appears at the same address; the probe
	// succeeds and closes the breaker.
	clk.Advance(2 * time.Second)
	srv := NewServer()
	if err := srv.Register("Echo", &echoService{release: make(chan struct{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(addr); err != nil {
		t.Skipf("port %s re-bind raced: %v", addr, err) // rare, environment-dependent
	}
	defer srv.Close()
	if err := c.Call(ctx, "Echo.Echo", &EchoArgs{S: "probe"}, &reply); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if breakerOpen(c) {
		t.Fatal("breaker should close after successful probe")
	}
}

// TestBreakerProbeFailureReopens: a failed half-open probe re-opens the
// breaker for another full cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	addr := deadAddr(t)
	c := NewClient(addr)
	defer c.Close()
	clk := clockx.NewFake()
	c.SetClock(clk)
	c.SetBreaker(2, time.Second)

	ctx := context.Background()
	var reply EchoReply
	for i := 0; i < 2; i++ {
		c.Call(ctx, "Echo.Echo", &EchoArgs{S: "x"}, &reply)
	}
	if !breakerOpen(c) {
		t.Fatal("breaker not open")
	}
	clk.Advance(1500 * time.Millisecond)
	// Probe (still no listener) fails; breaker re-opens.
	if err := c.Call(ctx, "Echo.Echo", &EchoArgs{S: "x"}, &reply); !IsTransport(err) {
		t.Fatalf("probe: want transport error, got %v", err)
	}
	if !breakerOpen(c) {
		t.Fatal("breaker should re-open after failed probe")
	}
	if got := c.BreakerOpens(); got != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (open + reopen)", got)
	}
}

// TestServerErrorDoesNotTripBreaker: application errors prove the peer
// is alive; the breaker must not count them.
func TestServerErrorDoesNotTripBreaker(t *testing.T) {
	_, _, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	c.SetBreaker(2, time.Second)
	var reply EchoReply
	for i := 0; i < 10; i++ {
		err := c.Call(context.Background(), "Echo.Fail", &EchoArgs{S: "x"}, &reply)
		if err == nil || IsTransport(err) {
			t.Fatalf("want app error, got %v", err)
		}
	}
	if breakerOpen(c) {
		t.Fatal("application errors tripped the breaker")
	}
}

// TestCallIdempotentRetriesThroughChaos: with a 60% drop policy,
// CallIdempotent's backoff retries still land the call (seeded chaos →
// deterministic schedule), and the retry counter moves.
func TestCallIdempotentRetriesThroughChaos(t *testing.T) {
	_, _, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	ch := NewChaos(42)
	ch.Set(addr, ChaosPolicy{Drop: 0.6})
	c.SetChaos(ch)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok := 0
	for i := 0; i < 20; i++ {
		var reply EchoReply
		if err := c.CallIdempotent(ctx, "Echo.Echo", &EchoArgs{S: "r"}, &reply); err == nil {
			if reply.S != "r" {
				t.Fatalf("reply = %q", reply.S)
			}
			ok++
		} else if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	// P(all 3 attempts dropped) = 0.216, so most of the 20 succeed.
	if ok < 10 {
		t.Fatalf("only %d/20 idempotent calls landed under 60%% drop", ok)
	}
	if c.Retries() == 0 {
		t.Fatal("no retries recorded under 60% drop")
	}
	if ch.Injected() == 0 {
		t.Fatal("chaos recorded no injected faults")
	}
}

// TestCallIdempotentExhaustionTypesPeerDown: against a dead peer,
// retries exhaust and the caller gets a typed PeerDownError.
func TestCallIdempotentExhaustionTypesPeerDown(t *testing.T) {
	c := NewClient(deadAddr(t))
	defer c.Close()
	var reply EchoReply
	err := c.CallIdempotent(context.Background(), "Echo.Echo", &EchoArgs{S: "x"}, &reply)
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("want PeerDownError after exhaustion, got %v", err)
	}
	if pd.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", pd.RetryAfter)
	}
}

// TestCallIdempotentDoesNotRetryAppErrors: rpc.ServerError returns
// immediately — retrying a failing method is wasted work and the method
// may not be idempotent at the application level.
func TestCallIdempotentDoesNotRetryAppErrors(t *testing.T) {
	_, _, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	var reply EchoReply
	err := c.CallIdempotent(context.Background(), "Echo.Fail", &EchoArgs{S: "x"}, &reply)
	if err == nil || IsTransport(err) {
		t.Fatalf("want app error, got %v", err)
	}
	if c.Retries() != 0 {
		t.Fatalf("app error was retried %d times", c.Retries())
	}
}

// TestChaosDeterministic: two chaos tables with the same seed produce
// the same drop schedule for the same call sequence.
func TestChaosDeterministic(t *testing.T) {
	seq := func() []bool {
		ch := NewChaos(7)
		ch.Set("a", ChaosPolicy{Drop: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = ch.decide("a").drop
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
}

// TestChaosPartitionTripsBreaker: a partition policy plus breaker means
// calls fail fast after threshold — the e2e chaos wiring in one unit.
func TestChaosPartitionTripsBreaker(t *testing.T) {
	_, _, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	clk := clockx.NewFake()
	c.SetClock(clk)
	c.SetBreaker(3, time.Second)
	ch := NewChaos(1)
	ch.Set(addr, ChaosPolicy{Partition: true})
	c.SetChaos(ch)

	var reply EchoReply
	for i := 0; i < 3; i++ {
		if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "x"}, &reply); !IsTransport(err) {
			t.Fatalf("partitioned call %d: %v", i, err)
		}
	}
	if !breakerOpen(c) {
		t.Fatal("partition did not trip breaker")
	}
	// Heal + cooldown: traffic flows again.
	ch.Clear()
	clk.Advance(2 * time.Second)
	if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "back"}, &reply); err != nil {
		t.Fatalf("post-heal call: %v", err)
	}
}

// TestChaosDuplicateDelivery: duplicated idempotent calls still return
// one correct answer (and the server simply sees the method twice).
func TestChaosDuplicateDelivery(t *testing.T) {
	_, _, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	ch := NewChaos(3)
	ch.Set(addr, ChaosPolicy{Duplicate: 1.0})
	c.SetChaos(ch)
	var reply EchoReply
	if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "dup"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.S != "dup" {
		t.Fatalf("reply = %q", reply.S)
	}
}

// --- pool edge cases under -race (satellite) ---

// TestPoolDiscardsConnAfterTransportError: a conn that saw a transport
// error must not be returned to the idle pool — the next call dials
// fresh instead of inheriting a poisoned stream.
func TestPoolDiscardsConnAfterTransportError(t *testing.T) {
	srv, svc, addr := startEcho(t)
	// Release the parked Block handler before the fixture's srv.Close
	// cleanup runs (net/rpc's ServeConn waits for in-flight calls).
	t.Cleanup(func() { close(svc.release) })
	c := NewClient(addr)
	defer c.Close()
	var reply EchoReply
	if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "a"}, &reply); err != nil {
		t.Fatal(err)
	}
	d0 := c.Dials()

	// Park a call server-side (it rides the pooled conn), then sever the
	// server's accepted conns: the parked call dies with a transport
	// error and its conn must be discarded, not returned to the pool.
	done := make(chan error, 1)
	go func() {
		var r EchoReply
		done <- c.Call(context.Background(), "Echo.Block", &EchoArgs{S: "b"}, &r)
	}()
	waitUntil(t, func() bool { svc.mu.Lock(); defer svc.mu.Unlock(); return svc.blocking > 0 })
	srv.mu.Lock()
	for cn := range srv.conns {
		cn.Close()
	}
	srv.mu.Unlock()
	if err := <-done; !IsTransport(err) {
		t.Fatalf("severed call: want transport error, got %v", err)
	}

	// The server still listens; the next call must dial fresh because
	// the poisoned conn was discarded and the pool is empty.
	if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "c"}, &reply); err != nil {
		t.Fatal(err)
	}
	if c.Dials() != d0+1 {
		t.Fatalf("dials %d -> %d, want exactly one fresh dial", d0, c.Dials())
	}
}

// TestPoolExhaustionDialsAndCaps: concurrency far above maxIdle works
// (every excess call dials) and the steady-state pool retains at most
// maxIdle conns — sequential traffic afterwards does not dial again.
func TestPoolExhaustionDialsAndCaps(t *testing.T) {
	_, svc, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()

	const n = 4 * maxIdle
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r EchoReply
			errs <- c.Call(context.Background(), "Echo.Block", &EchoArgs{S: "x"}, &r)
		}()
	}
	waitUntil(t, func() bool { svc.mu.Lock(); defer svc.mu.Unlock(); return svc.blocking == n })
	if got := c.Dials(); got != n {
		t.Fatalf("dials = %d, want %d (one per concurrent call)", got, n)
	}
	close(svc.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle > maxIdle {
		t.Fatalf("idle pool = %d, cap is %d", idle, maxIdle)
	}
	// Steady state: sequential calls ride the retained conns.
	before := c.Dials()
	for i := 0; i < 2*maxIdle; i++ {
		var r EchoReply
		if err := c.Call(context.Background(), "Echo.Echo", &EchoArgs{S: "y"}, &r); err != nil {
			t.Fatal(err)
		}
	}
	if c.Dials() != before {
		t.Fatalf("steady-state traffic dialed (%d -> %d)", before, c.Dials())
	}
}

// TestCancelMidDial: cancelling the context while the dial is in
// flight returns the context error (not a typed transport error — the
// caller gave up, the peer was never proven dead) and trips nothing.
func TestCancelMidDial(t *testing.T) {
	// A listener with an un-drained backlog: fill it so further connects
	// hang in SYN queue, then dial with a cancelling context.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Saturate the accept backlog with raw conns nobody accepts.
	var hold []net.Conn
	defer func() {
		for _, cn := range hold {
			cn.Close()
		}
	}()
	for i := 0; i < 512; i++ {
		cn, err := net.DialTimeout("tcp", l.Addr().String(), 50*time.Millisecond)
		if err != nil {
			break // backlog full — what we want
		}
		hold = append(hold, cn)
	}

	c := NewClient(l.Addr().String())
	defer c.Close()
	c.SetBreaker(1, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var r EchoReply
		done <- c.Call(ctx, "Echo.Echo", &EchoArgs{S: "x"}, &r)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// Loopback dials usually complete instantly even with a full
		// backlog, in which case the call proceeds past the dial and
		// aborts with context.Canceled from the in-flight path — both
		// exits must surface the context error, never a transport one.
		if !errors.Is(err, context.Canceled) && err != nil {
			t.Fatalf("cancelled call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled dial never returned")
	}
	if breakerOpen(c) {
		t.Fatal("caller cancellation tripped the breaker")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
