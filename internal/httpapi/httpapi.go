// Package httpapi is the HTTP surface of aglserve, AGL's online inference
// service. Every endpoint is a function returning (value, error), and one
// writer turns the value into the JSON body or the error into the envelope.
//
//	GET  /score?node=ID          one node  -> {"node":ID,"scores":[...]}
//	GET  /link?src=A&dst=B       pair score (link models) -> {"logit":..,"score":..}
//	POST /scores {"nodes":[..]}  bulk      -> {"scores":{"ID":[...],...}}
//	POST /update                 stream graph mutations (single or batch)
//	GET  /mutations?since=V      catch-up feed of applied batches (410 when trimmed);
//	                             &codec=q8 packs feature payloads as int8
//	GET  /stats                  request + mutation accounting
//	GET  /metrics?last=N         flight-recorder snapshot (newest N samples)
//	GET  /healthz                liveness
//
// Three more exist only in cluster mode, when New is given a replica:
//
//	GET  /placement              current epoch + slot->replica table
//	GET  /cluster                replica routing/fan-out counters
//	POST /admin/migrate?slot=S&to=R   live-migrate one slot to replica R
//
// Every error response uses one JSON envelope,
// {"error":{"code":"...","message":"..."}}, with stable codes (errStatus):
// bad_request 400, not_found 404, stale_epoch 409, gone 410, too_large 413
// (a POST body over 64 MiB), overloaded 429 and peer_down 503 (both with
// Retry-After: resend after the hint), deadline_exceeded and canceled 408,
// unavailable 503 (shutting down), internal 500.
//
// /update accepts one mutation object or a batch:
//
//	{"op":"add_edge","src":1,"dst":2,"weight":1.5}
//	{"mutations":[{"op":"add_node","id":9,"feat":[0,1]},
//	              {"op":"add_edge","src":9,"dst":2},
//	              {"op":"remove_edge","src":1,"dst":2},
//	              {"op":"update_feat","id":2,"feat":[3,4]}]}
//
// and answers {"version":V,"applied":N} plus per-index "errors" on partial
// failure — invalid mutations are skipped, valid ones land, matching
// /scores semantics. Each applied batch advances the graph version and
// invalidates exactly the affected cached scores and embedding rows; the
// next request for an affected node recomputes on the new graph.
package httpapi

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"agl/internal/graph"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/rpcx"
	"agl/internal/serve"
)

// API is the score surface reads and writes route through: the
// *serve.Server itself in one process, or the *serve.Replica in cluster
// mode, which proxies non-owned nodes to their owner and fans mutations
// out cluster-wide. It is an interface so tests can substitute a fake.
type API interface {
	Score(ctx context.Context, node int64) ([]float64, error)
	ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error)
	ScoreLink(ctx context.Context, src, dst int64) (float64, error)
	Apply(ctx context.Context, muts []graph.Mutation) (*serve.ApplyResult, error)
}

// maxBodyBytes caps a POST body (/scores and /update).
const maxBodyBytes = 64 << 20

type handler struct {
	api API
	srv *serve.Server
	rep *serve.Replica
}

// New returns the service's HTTP handler. Reads and writes go through api;
// /stats, /metrics and /mutations report srv, the local server; the
// cluster routes exist only when rep is non-nil. A positive deadline
// bounds every request end to end.
func New(api API, srv *serve.Server, rep *serve.Replica, deadline time.Duration) http.Handler {
	h := &handler{api, srv, rep}
	mux := http.NewServeMux()
	route := func(pattern string, ep func(*http.Request) (any, error)) {
		mux.Handle(pattern, answer{ep, deadline})
	}
	route("GET /score", h.score)
	route("GET /link", h.link)
	route("POST /scores", h.scores)
	route("POST /update", h.update)
	route("GET /mutations", h.mutations)
	route("GET /stats", func(*http.Request) (any, error) { return srv.Stats(), nil })
	route("GET /metrics", h.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if rep != nil {
		route("GET /placement", func(*http.Request) (any, error) { return rep.Table(), nil })
		route("GET /cluster", func(*http.Request) (any, error) { return rep.ClusterStats(), nil })
		route("POST /admin/migrate", h.migrate)
	}
	return mux
}

// answer is the one writer every JSON endpoint answers through: it
// encodes the value ep returns as the JSON body or, when ep fails, the
// error envelope (the value is then ignored).
type answer struct {
	ep       func(*http.Request) (any, error)
	deadline time.Duration
}

func (a answer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.deadline > 0 {
		// The edge deadline propagates through r.Context() into
		// Score/ScoreLink/Apply and on into the micro-batcher, where a
		// request that can no longer make it is dropped before the
		// forward pass (408 deadline_exceeded).
		ctx, cancel := context.WithTimeout(r.Context(), a.deadline)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	v, err := a.ep(r)
	status := http.StatusOK
	if err != nil {
		status, v = envelope(w, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func (h *handler) score(r *http.Request) (any, error) {
	id, err := param(r.URL.Query(), "node", parseInt64)
	if err != nil {
		return nil, err
	}
	scores, err := h.api.Score(r.Context(), id)
	return map[string]any{"node": id, "scores": scores}, err
}

func (h *handler) link(r *http.Request) (any, error) {
	q := r.URL.Query()
	src, errSrc := param(q, "src", parseInt64)
	dst, errDst := param(q, "dst", parseInt64)
	if err := cmp.Or(errSrc, errDst); err != nil {
		return nil, err
	}
	logit, err := h.api.ScoreLink(r.Context(), src, dst)
	// score is the sigmoid link probability; logit the raw head output.
	return map[string]any{"src": src, "dst": dst, "logit": logit, "score": nn.Sigmoid(logit)}, err
}

func (h *handler) scores(r *http.Request) (any, error) {
	var req struct {
		Nodes []int64 `json:"nodes"`
	}
	if _, err := readBody(r, &req); err != nil {
		return nil, err
	}
	scores, errs := h.api.ScoreMany(r.Context(), req.Nodes)
	out := make(map[string][]float64, len(req.Nodes))
	for i, id := range req.Nodes {
		if errs[i] == nil {
			out[strconv.FormatInt(id, 10)] = scores[i]
		}
	}
	return partial(map[string]any{"scores": out}, len(out) > 0, errs,
		func(i int) string { return strconv.FormatInt(req.Nodes[i], 10) })
}

func (h *handler) update(r *http.Request) (any, error) {
	muts, errs, err := decodeMutations(r)
	if err != nil {
		return nil, err
	}
	res, err := h.api.Apply(r.Context(), muts)
	if err != nil {
		return nil, err
	}
	for i, e := range res.Errs {
		errs[i] = cmp.Or(errs[i], e) // a parse failure is reported, not the placeholder's rejection
	}
	return partial(map[string]any{"version": res.Version, "applied": res.Applied, "invalidated": res.Invalidated},
		res.Applied > 0, errs, strconv.Itoa)
}

// partial completes the answer resp of a request whose elements succeed or
// fail one by one (/scores ids, /update mutations). The request fails as a
// whole, with its first element error, only when nothing succeeded;
// otherwise resp carries each failure under "errors", keyed by key(i).
func partial(resp map[string]any, succeeded bool, errs []error, key func(i int) string) (any, error) {
	failed := map[string]string{}
	for i, err := range errs {
		if err != nil {
			failed[key(i)] = err.Error()
		}
	}
	if first := cmp.Or(errs...); !succeeded && first != nil {
		return nil, first
	}
	if len(failed) > 0 {
		resp["errors"] = failed
	}
	return resp, nil
}

func (h *handler) mutations(r *http.Request) (any, error) {
	q := r.URL.Query()
	since, err := param(q, "since", func(s string) (uint64, error) {
		if s == "" {
			return 0, nil // no cursor: the whole retained log
		}
		return strconv.ParseUint(s, 10, 64)
	})
	if err != nil {
		return nil, err
	}
	entries, ok := h.srv.MutationsSince(since)
	if !ok {
		return nil, gone{fmt.Errorf("mutation log trimmed past version %d; resync from a fresh snapshot", since)}
	}
	if entries == nil {
		entries = []graph.LogEntry{}
	}
	// "version" is the version the feed has delivered through — the
	// exact checkpoint for the next ?since= poll. Deriving it from the
	// last entry (not the server's live version, which a concurrent
	// Apply may already have advanced past these entries) means a
	// replica can neither skip a batch nor replay one.
	version := since
	if len(entries) > 0 {
		version = entries[len(entries)-1].Version
	}
	// ?codec=q8 packs feature payloads as int8 (lossy, error bounded by
	// scale/2 per component) — a bandwidth trade the poller opts into.
	// The decoder (Mutation.UnmarshalJSON) accepts both forms.
	var wireEntries any = entries
	switch codec := q.Get("codec"); codec {
	case "", "f64":
	case "q8":
		wireEntries = graph.QuantizeLog(entries)
	default:
		return nil, badRequest{fmt.Errorf("bad codec parameter %q (want f64 or q8)", codec)}
	}
	return map[string]any{"version": version, "entries": wireEntries}, nil
}

func (h *handler) metrics(r *http.Request) (any, error) {
	last := 60
	if q := r.URL.Query().Get("last"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return nil, badRequest{fmt.Errorf("bad last parameter %q", q)}
		}
		last = v
	}
	samples := h.srv.Flight()
	if last > 0 && len(samples) > last {
		samples = samples[len(samples)-last:]
	}
	if samples == nil {
		samples = []serve.FlightSample{}
	}
	spec := h.srv.FlightInfo()
	return map[string]any{
		"interval_ms": spec.Interval.Milliseconds(), "slots": spec.Slots,
		"path": spec.Path, "samples": samples,
	}, nil
}

func (h *handler) migrate(r *http.Request) (any, error) {
	q := r.URL.Query()
	slot, errSlot := param(q, "slot", strconv.Atoi)
	to, errTo := param(q, "to", strconv.Atoi)
	if err := cmp.Or(errSlot, errTo); err != nil {
		return nil, err
	}
	return h.rep.Migrate(r.Context(), slot, to)
}

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// param parses query parameter name; a malformed value is a bad request.
func param[T any](q url.Values, name string, parse func(string) (T, error)) (T, error) {
	v, err := parse(q.Get(name))
	if err != nil {
		return v, badRequest{fmt.Errorf("bad %s parameter: %w", name, err)}
	}
	return v, nil
}

// readBody decodes a POST body, which must hold exactly one JSON value,
// into v and returns it. A body over maxBodyBytes fails with its
// *http.MaxBytesError (413 too_large); any other failure is a bad request.
func readBody(r *http.Request, v any) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil && !errors.As(err, new(*http.MaxBytesError)) {
		err = badRequest{fmt.Errorf("bad request body: %w", err)}
	}
	return body, err
}

// decodeMutations parses a /update body (see the package doc). Batch
// elements decode individually so one malformed mutation cannot reject its
// valid siblings — an unparseable element becomes a zero Mutation (which
// Apply rejects positionally) with its parse error recorded at the same
// index in decodeErrs.
func decodeMutations(r *http.Request) (muts []graph.Mutation, decodeErrs []error, err error) {
	var batch struct {
		Mutations []json.RawMessage `json:"mutations"`
	}
	body, err := readBody(r, &batch)
	if err != nil {
		return nil, nil, err
	}
	if len(batch.Mutations) == 0 {
		var single graph.Mutation
		if err := json.Unmarshal(body, &single); err != nil {
			return nil, nil, badRequest{fmt.Errorf("bad mutation: %w", err)}
		}
		return []graph.Mutation{single}, make([]error, 1), nil
	}
	muts = make([]graph.Mutation, len(batch.Mutations))
	decodeErrs = make([]error, len(batch.Mutations))
	for i, raw := range batch.Mutations {
		if err := json.Unmarshal(raw, &muts[i]); err != nil {
			muts[i] = graph.Mutation{} // op 0: rejected by Apply
			if !errors.Is(err, graph.ErrBadMutation) {
				err = fmt.Errorf("%w: %v", graph.ErrBadMutation, err)
			}
			decodeErrs[i] = err
		}
	}
	return muts, decodeErrs, nil
}

// badRequest is an error in the request itself, a malformed parameter or
// body, that the client must fix before resending.
type badRequest struct{ error }

// gone is a /mutations cursor older than the retained log.
type gone struct{ error }

// errStatus maps an error to its HTTP status and stable machine-readable
// code. Codes are part of the API (documented in README): clients branch
// on error.code, never on the message text.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, placement.ErrStaleEpoch):
		// Retryable: the client refetches /placement and resends with the
		// current epoch.
		return http.StatusConflict, "stale_epoch"
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, serve.ErrUnknownNode), errors.Is(err, graph.ErrUnknownNode),
		errors.Is(err, graph.ErrUnknownEdge):
		return http.StatusNotFound, "not_found"
	case errors.As(err, new(badRequest)), errors.Is(err, graph.ErrBadMutation),
		errors.Is(err, graph.ErrDuplicateNode), errors.Is(err, serve.ErrNoEdgeHead):
		return http.StatusBadRequest, "bad_request"
	case errors.As(err, new(gone)):
		return http.StatusGone, "gone"
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, rpcx.ErrPeerDown):
		// The owning replica is unreachable (circuit breaker open or
		// retries exhausted) and no failover table has landed yet.
		// Retryable: a Retry-After hint accompanies the 503.
		return http.StatusServiceUnavailable, "peer_down"
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		// Covers serve.ErrExpired too: the request was dropped from its
		// micro-batch because the deadline could not be met.
		return http.StatusRequestTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// envelope returns err's status and its {"error":{"code","message"}} body.
// Shed and peer-down errors also set a Retry-After hint on w, in whole
// seconds rounded up.
func envelope(w http.ResponseWriter, err error) (int, any) {
	status, code := errStatus(err)
	var retryAfter time.Duration
	var shed *serve.ShedError
	var down *rpcx.PeerDownError
	switch {
	case errors.As(err, &down):
		retryAfter = down.RetryAfter
	case errors.As(err, &shed):
		retryAfter = shed.RetryAfter
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	}
	return status, map[string]any{"error": map[string]string{"code": code, "message": err.Error()}}
}
