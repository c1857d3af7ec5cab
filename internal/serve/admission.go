package serve

// Admission control for the cold path. The micro-batcher's queue is the
// only place the server can build unbounded latency under overload: warm
// and cache-hit requests complete inline, but a cold request costs a k-hop
// extraction plus a forward pass, and once the queue holds more work than
// the engine can clear within a request deadline, every queued request is
// already dead — it just doesn't know yet. The admission controller keeps
// the queue short enough that admitted requests can still meet deadlines,
// and turns the rest into an explicit, machine-readable shed the caller
// can retry against (HTTP 429 + Retry-After at the aglserve edge).
//
// The controller is deliberately simple: a hard cap on in-flight cold
// requests (admitted but not yet completed) plus an EWMA of per-request
// cold-path service time used to compute honest Retry-After hints. The cap
// is also the batcher's queue capacity, so pending <= limit = capacity and
// the plain channel send can never block on a full channel while holding
// admission.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the sentinel wrapped by every ShedError; callers can
// errors.Is(err, ErrOverloaded) without caring about the hint fields.
var ErrOverloaded = errors.New("serve: cold path overloaded")

// ShedError reports an admission rejection with a retry hint.
type ShedError struct {
	RetryAfter time.Duration // estimated time until the queue has room
	Pending    int           // cold requests in flight at rejection time
	Limit      int           // the admission cap that was hit
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: cold path overloaded (%d/%d in flight, retry after %s)",
		e.Pending, e.Limit, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrOverloaded }

// admission caps in-flight cold-path requests and tracks service time.
type admission struct {
	limit    int64
	maxBatch int64
	pending  atomic.Int64
	// perReqNs is an EWMA of cold-path service time per request in a
	// batch, updated by the batcher after each cold section.
	perReqNs atomic.Int64
}

func newAdmission(limit, maxBatch int) *admission {
	a := &admission{limit: int64(limit), maxBatch: int64(maxBatch)}
	a.perReqNs.Store(int64(2 * time.Millisecond)) // prior until first batch
	return a
}

// admit reserves a slot, or returns a ShedError when the cap is reached.
// Every successful admit must be paired with exactly one release.
func (a *admission) admit() error {
	for {
		p := a.pending.Load()
		if p >= a.limit {
			return &ShedError{
				RetryAfter: a.retryAfter(p),
				Pending:    int(p),
				Limit:      int(a.limit),
			}
		}
		if a.pending.CompareAndSwap(p, p+1) {
			return nil
		}
	}
}

func (a *admission) release() { a.pending.Add(-1) }

// observe folds one cold section (n requests served in d) into the EWMA.
func (a *admission) observe(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	per := int64(d) / int64(n)
	old := a.perReqNs.Load()
	a.perReqNs.Store(old + (per-old)/4) // EWMA alpha 1/4
}

// estimate returns the expected cold-path wait for a request entering now
// with p requests already ahead of it: full batches ahead plus its own.
func (a *admission) estimate(p int64) time.Duration {
	batches := p/a.maxBatch + 1
	return time.Duration(batches * a.maxBatch * a.perReqNs.Load())
}

// retryAfter is the shed hint: how long until enough of the backlog has
// drained that a retry is likely to be admitted. Floor of 5ms so clients
// never busy-spin on a hint of zero.
func (a *admission) retryAfter(p int64) time.Duration {
	d := a.estimate(p)
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}
