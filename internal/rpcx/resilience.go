package rpcx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"time"

	"agl/internal/clockx"
)

// This file is the client-side resilience layer: typed transport errors,
// a per-peer circuit breaker so a dead peer costs one cooldown rather
// than one dial timeout per request, and jittered exponential-backoff
// retries for idempotent calls. The breaker is opt-in (SetBreaker);
// plain Call semantics are unchanged for clients that never enable it.

// ErrPeerDown is the sentinel matched by errors.Is when a call fails
// fast because the peer is considered down (circuit breaker open) or
// retries against it were exhausted. The concrete error in the chain is
// a *PeerDownError carrying the address and a retry hint.
var ErrPeerDown = errors.New("rpcx: peer down")

// PeerDownError reports a peer the client has given up on for now.
// RetryAfter is the caller-facing hint (how long until the breaker
// half-opens); HTTP edges surface it as a Retry-After header on a 503.
type PeerDownError struct {
	Addr       string
	RetryAfter time.Duration
	Err        error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("rpcx: peer %s down (retry after %s): %v", e.Addr, e.RetryAfter, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *PeerDownError) Unwrap() error { return e.Err }

// Is matches the ErrPeerDown sentinel.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// TransportError is a dial or stream-level failure — the class of error
// that poisons a connection and (unlike rpc.ServerError) says nothing
// was necessarily executed remotely. Only this class is retried by
// CallIdempotent and counted by the circuit breaker.
type TransportError struct {
	Addr   string
	Method string // empty for dial failures
	Err    error
}

func (e *TransportError) Error() string {
	if e.Method == "" {
		return fmt.Sprintf("rpcx: dial %s: %v", e.Addr, e.Err)
	}
	return fmt.Sprintf("rpcx: call %s on %s: %v", e.Method, e.Addr, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err contains a TransportError.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// Breaker defaults, used by SetBreaker callers that have no opinion.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
)

// Retry schedule for CallIdempotent: up to retryAttempts total tries,
// sleeping a jittered exponential backoff between them.
const (
	retryAttempts = 3
	retryBase     = 10 * time.Millisecond
)

// SetBreaker enables the per-peer circuit breaker: threshold consecutive
// transport failures open it for cooldown, during which every Call fails
// fast with a *PeerDownError instead of paying a dial timeout. After the
// cooldown one probe call is admitted (half-open); success closes the
// breaker, failure re-opens it. threshold <= 0 disables (the default).
func (c *Client) SetBreaker(threshold int, cooldown time.Duration) {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	c.bThreshold = threshold
	c.bCooldown = cooldown
}

// SetClock injects the time source used by breaker cooldowns and retry
// backoff (tests pass a clockx.Fake). Call before the first Call.
func (c *Client) SetClock(clk clockx.Clock) {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	c.clk = clk
}

// Retries reports how many backoff retries CallIdempotent has performed —
// the proxied-read resilience observable.
func (c *Client) Retries() int64 { return c.retries.Load() }

// BreakerOpens reports how many times the breaker transitioned to open
// (re-opens after a failed probe count).
func (c *Client) BreakerOpens() int64 { return c.bOpensN.Load() }

// clock returns the injected clock, defaulting to the real one. Callers
// hold c.bmu.
func (c *Client) clock() clockx.Clock {
	if c.clk == nil {
		c.clk = clockx.Real{}
	}
	return c.clk
}

// breakerAllow gates a call: nil means proceed (and, in the half-open
// state, marks this call as the probe).
func (c *Client) breakerAllow() error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.bThreshold <= 0 || c.bOpenUntil.IsZero() {
		return nil
	}
	now := c.clock().Now()
	if now.Before(c.bOpenUntil) {
		return &PeerDownError{
			Addr:       c.addr,
			RetryAfter: c.bOpenUntil.Sub(now),
			Err:        fmt.Errorf("circuit open after %d consecutive transport failures", c.bFails),
		}
	}
	// Cooldown elapsed: half-open. Admit exactly one probe; everyone
	// else keeps failing fast until the probe resolves.
	if c.bProbing {
		return &PeerDownError{
			Addr:       c.addr,
			RetryAfter: c.bCooldown,
			Err:        errors.New("half-open probe in flight"),
		}
	}
	c.bProbing = true
	return nil
}

// breakerRecord folds a call outcome into the breaker state. Transport
// failures count against the peer; success and rpc.ServerError (the
// peer answered — it is alive) reset it; the caller's own context
// cancellation is neutral.
func (c *Client) breakerRecord(err error) {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.bThreshold <= 0 {
		return
	}
	c.bProbing = false
	var te *TransportError
	switch {
	case err == nil:
		c.bFails = 0
		c.bOpenUntil = time.Time{}
	case errors.As(err, &te) && !errors.Is(err, context.Canceled):
		c.bFails++
		if c.bFails >= c.bThreshold {
			c.bOpenUntil = c.clock().Now().Add(c.bCooldown)
			c.bOpensN.Add(1)
		}
	default:
		if _, ok := err.(rpc.ServerError); ok {
			c.bFails = 0
			c.bOpenUntil = time.Time{}
		}
		// Context errors: neutral. The peer was never proven dead.
	}
}

// CallIdempotent is Call plus jittered exponential-backoff retries for
// transport-class failures — safe only for idempotent methods (reads,
// table exchange, heartbeats). Application errors (rpc.ServerError),
// context errors, and an open breaker are returned immediately; a call
// whose retries are exhausted returns a *PeerDownError wrapping the last
// transport error, so callers and HTTP edges can treat "peer
// unreachable" uniformly via errors.Is(err, ErrPeerDown).
func (c *Client) CallIdempotent(ctx context.Context, serviceMethod string, args, reply any) error {
	var err error
	backoff := retryBase
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if serr := c.sleepCtx(ctx, c.jitter(backoff)); serr != nil {
				return serr
			}
			backoff *= 2
		}
		err = c.Call(ctx, serviceMethod, args, reply)
		if err == nil {
			return nil
		}
		if !IsTransport(err) || errors.Is(err, context.DeadlineExceeded) {
			// Server-side error, caller cancellation, our own deadline,
			// or an already-typed PeerDownError: retrying cannot help.
			return err
		}
	}
	return &PeerDownError{Addr: c.addr, RetryAfter: c.retryAfterHint(), Err: err}
}

// retryAfterHint suggests how long a caller should wait before trying
// this peer again: the breaker cooldown remainder when open, else the
// default cooldown.
func (c *Client) retryAfterHint() time.Duration {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.bThreshold > 0 && !c.bOpenUntil.IsZero() {
		if rem := c.bOpenUntil.Sub(c.clock().Now()); rem > 0 {
			return rem
		}
	}
	if c.bCooldown > 0 {
		return c.bCooldown
	}
	return DefaultBreakerCooldown
}

// jitter spreads d over [d/2, d) so synchronized retriers decorrelate.
// The draw comes from a per-client seeded source (deterministic per
// address), guarded by its own mutex.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rngV == nil {
		var seed int64 = 0x9E3779B9
		for _, b := range []byte(c.addr) {
			seed = seed*131 + int64(b)
		}
		c.rngV = rand.New(rand.NewSource(seed))
	}
	half := d / 2
	return half + time.Duration(c.rngV.Int63n(int64(half)))
}

// sleepCtx sleeps d on the injected clock, aborting early if ctx ends.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	c.bmu.Lock()
	clk := c.clock()
	c.bmu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	done := make(chan struct{})
	t := clk.AfterFunc(d, func() { close(done) })
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		return nil
	}
}
