package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/rpcx"
	"agl/internal/serve"
)

// knownNodes is the id range fakeAPI treats as existing: [0, knownNodes).
const knownNodes = 100

// fakeAPI answers from arithmetic instead of a model: node id scores
// [id/10], a pair's logit is src-dst, and ids outside [0, knownNodes) are
// unknown. A non-nil err fails every Score, ScoreLink and Apply call; block
// makes Score wait for its context instead.
type fakeAPI struct {
	err   error
	block bool
}

var errUnknownFake = fmt.Errorf("fake: %w", serve.ErrUnknownNode)

func known(id int64) bool { return id >= 0 && id < knownNodes }

func (f *fakeAPI) Score(ctx context.Context, node int64) ([]float64, error) {
	switch {
	case f.block:
		<-ctx.Done()
		return nil, ctx.Err()
	case f.err != nil:
		return nil, f.err
	case !known(node):
		return nil, errUnknownFake
	}
	return []float64{float64(node) / 10}, nil
}

func (f *fakeAPI) ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error) {
	scores, errs := make([][]float64, len(nodes)), make([]error, len(nodes))
	for i, id := range nodes {
		scores[i], errs[i] = f.Score(ctx, id)
	}
	return scores, errs
}

func (f *fakeAPI) ScoreLink(_ context.Context, src, dst int64) (float64, error) {
	if f.err != nil {
		return 0, f.err
	}
	if !known(src) || !known(dst) {
		return 0, errUnknownFake
	}
	return float64(src - dst), nil
}

// Apply rejects op 0 (the placeholder a malformed batch element decodes
// to) as a bad mutation and any mutation naming an unknown node as not
// found; the rest apply.
func (f *fakeAPI) Apply(_ context.Context, muts []graph.Mutation) (*serve.ApplyResult, error) {
	if f.err != nil {
		return nil, f.err
	}
	res := &serve.ApplyResult{Errs: make([]error, len(muts))}
	for i, m := range muts {
		switch {
		case m.Op == 0:
			res.Errs[i] = fmt.Errorf("%w: placeholder", graph.ErrBadMutation)
		case m.Op == graph.OpAddEdge && !(known(m.Src) && known(m.Dst)):
			res.Errs[i] = fmt.Errorf("fake: %w", graph.ErrUnknownNode)
		default:
			res.Applied++
		}
	}
	if res.Applied > 0 {
		res.Version, res.Invalidated = 1, res.Applied
	}
	return res, nil
}

// newNodeServer is a real Server over a 10-node chain and an untrained
// node-task model (no edge head).
func newNodeServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 2, Hidden: 4, Classes: 1, Layers: 1, Act: nn.ActTanh, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []graph.Node
	var edges []graph.Edge
	for i := int64(0); i < 10; i++ {
		nodes = append(nodes, graph.Node{ID: i, Feat: []float64{float64(i), 1}})
		if i > 0 {
			edges = append(edges, graph.Edge{Src: i - 1, Dst: i, Weight: 1})
		}
	}
	g, err := graph.Build(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg, model, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func serveReq(h http.Handler, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec
}

type envelopeBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// wantEnvelope asserts rec is the error envelope with status and code, and
// returns its message.
func wantEnvelope(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) string {
	t.Helper()
	var env envelopeBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != status || env.Error.Code != code {
		t.Fatalf("status %d body %.300q (%v), want %d %q", rec.Code, rec.Body.String(), err, status, code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("envelope Content-Type %q", ct)
	}
	return env.Error.Message
}

// TestErrStatusTable drives every row of errStatus through GET /score: the
// status, the envelope code, and the Retry-After hint.
func TestErrStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err        error
		status     int
		code       string
		retryAfter string
	}{
		{&placement.EpochError{Have: 3, Got: 2}, 409, "stale_epoch", ""},
		{&serve.ShedError{RetryAfter: 1500 * time.Millisecond, Pending: 4, Limit: 4}, 429, "overloaded", "2"},
		{&serve.ShedError{RetryAfter: time.Nanosecond}, 429, "overloaded", "1"},
		{&serve.ShedError{RetryAfter: 2 * time.Second}, 429, "overloaded", "2"},
		{serve.ErrUnknownNode, 404, "not_found", ""},
		{graph.ErrUnknownNode, 404, "not_found", ""},
		{graph.ErrUnknownEdge, 404, "not_found", ""},
		{graph.ErrBadMutation, 400, "bad_request", ""},
		{graph.ErrDuplicateNode, 400, "bad_request", ""},
		{serve.ErrNoEdgeHead, 400, "bad_request", ""},
		{&rpcx.PeerDownError{Addr: "10.0.0.2:7000", RetryAfter: 3 * time.Second, Err: errors.New("breaker open")}, 503, "peer_down", "3"},
		{serve.ErrClosed, 503, "unavailable", ""},
		{context.DeadlineExceeded, 408, "deadline_exceeded", ""},
		{serve.ErrExpired, 408, "deadline_exceeded", ""},
		{context.Canceled, 408, "canceled", ""},
		{errors.New("boom"), 500, "internal", ""},
	} {
		h := New(&fakeAPI{err: fmt.Errorf("wrapped: %w", tc.err)}, nil, nil, 0)
		rec := serveReq(h, "GET", "/score?node=1", nil)
		if msg := wantEnvelope(t, rec, tc.status, tc.code); msg != "wrapped: "+tc.err.Error() {
			t.Errorf("%v: message %q", tc.err, msg)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%v: Retry-After %q, want %q", tc.err, got, tc.retryAfter)
		}
	}
}

// TestBadParameters: every malformed query parameter is the 400 envelope,
// with the parser's message.
func TestBadParameters(t *testing.T) {
	srv := newNodeServer(t, serve.Config{})
	h := New(&fakeAPI{}, srv, nil, 0)
	for target, msg := range map[string]string{
		"/score":               `bad node parameter: strconv.ParseInt: parsing "": invalid syntax`,
		"/score?node=x":        `bad node parameter: strconv.ParseInt: parsing "x": invalid syntax`,
		"/link?src=1":          `bad dst parameter: strconv.ParseInt: parsing "": invalid syntax`,
		"/link?src=a&dst=b":    `bad src parameter: strconv.ParseInt: parsing "a": invalid syntax`,
		"/mutations?since=-1":  `bad since parameter: strconv.ParseUint: parsing "-1": invalid syntax`,
		"/mutations?codec=zip": `bad codec parameter "zip" (want f64 or q8)`,
		"/metrics?last=x":      `bad last parameter "x"`,
		"/metrics?last=-1":     `bad last parameter "-1"`,
	} {
		if got := wantEnvelope(t, serveReq(h, "GET", target, nil), 400, "bad_request"); got != msg {
			t.Errorf("GET %s: message %q, want %q", target, got, msg)
		}
	}
}

// TestAnswerBytes pins whole response bodies: the writer must encode
// exactly what clients (and bench/'s byte-for-byte reference check) see.
func TestAnswerBytes(t *testing.T) {
	h := New(&fakeAPI{}, nil, nil, 0)
	for _, tc := range []struct{ method, target, body, want string }{
		{"GET", "/score?node=7", "", `{"node":7,"scores":[0.7]}`},
		{"GET", "/link?src=3&dst=3", "", `{"dst":3,"logit":0,"score":0.5,"src":3}`},
		{"POST", "/scores", `{"nodes":[1,2]}`, `{"scores":{"1":[0.1],"2":[0.2]}}`},
		{"POST", "/scores", `{"nodes":[]}`, `{"scores":{}}`},
		{"POST", "/update", `{"op":"add_node","id":5,"feat":[1,2]}`, `{"applied":1,"invalidated":1,"version":1}`},
	} {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		rec := serveReq(h, tc.method, tc.target, body)
		if rec.Code != 200 || rec.Body.String() != tc.want+"\n" || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %q %q, want 200 %q", tc.method, tc.target, rec.Code,
				rec.Header().Get("Content-Type"), rec.Body.String(), tc.want)
		}
	}
}

// TestLinkOnNodeModel: a model trained without an edge head answers /link
// with 400, not a crash or a 500.
func TestLinkOnNodeModel(t *testing.T) {
	srv := newNodeServer(t, serve.Config{})
	rec := serveReq(New(srv, srv, nil, 0), "GET", "/link?src=1&dst=2", nil)
	if msg := wantEnvelope(t, rec, 400, "bad_request"); !strings.Contains(msg, serve.ErrNoEdgeHead.Error()) {
		t.Fatalf("message %q", msg)
	}
}

// spaces yields n spaces without holding them.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(len(p), s.n)]
	for i := range p {
		p[i] = ' '
	}
	s.n -= len(p)
	return len(p), nil
}

// TestPostBodies: both POST bodies are read by one reader, so both answer
// 413 too_large over the cap and refuse trailing data after the JSON value.
func TestPostBodies(t *testing.T) {
	h := New(&fakeAPI{}, nil, nil, 0)
	for _, target := range []string{"/scores", "/update"} {
		oversized := io.MultiReader(strings.NewReader(`{"nodes":[1`), &spaces{maxBodyBytes}, strings.NewReader(`]}`))
		if msg := wantEnvelope(t, serveReq(h, "POST", target, oversized), 413, "too_large"); msg != "http: request body too large" {
			t.Errorf("POST %s oversized: message %q", target, msg)
		}
	}
	for target, body := range map[string]string{
		"/scores": `{"nodes":[1]}xyz`,
		"/update": `{"op":"add_node","id":5}xyz`,
	} {
		msg := wantEnvelope(t, serveReq(h, "POST", target, strings.NewReader(body)), 400, "bad_request")
		if msg != "bad request body: invalid character 'x' after top-level value" {
			t.Errorf("POST %s trailing data: message %q", target, msg)
		}
	}
}

// partialBody is the answer shape of /scores and /update.
type partialBody struct {
	Scores  map[string][]float64 `json:"scores"`
	Applied int                  `json:"applied"`
	Errors  map[string]string    `json:"errors"`
}

func decodePartial(t *testing.T, rec *httptest.ResponseRecorder) partialBody {
	t.Helper()
	var b partialBody
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPartialFailure: /scores and /update share one rule — an error status
// only when nothing succeeded (the first element's error), otherwise 200
// with the failures under "errors" by id or position.
func TestPartialFailure(t *testing.T) {
	h := New(&fakeAPI{}, nil, nil, 0)
	post := func(target, body string) *httptest.ResponseRecorder {
		return serveReq(h, "POST", target, strings.NewReader(body))
	}

	got := decodePartial(t, post("/scores", `{"nodes":[1,500,2,500]}`))
	if len(got.Scores) != 2 || len(got.Errors) != 1 || got.Errors["500"] != errUnknownFake.Error() {
		t.Fatalf("/scores partial: %+v", got)
	}
	wantEnvelope(t, post("/scores", `{"nodes":[500,-1]}`), 404, "not_found")

	// Element 1 names an unknown node; element 2 does not parse, and its
	// decode error is reported rather than the placeholder's rejection.
	got = decodePartial(t, post("/update", `{"mutations":[
		{"op":"add_node","id":7},
		{"op":"add_edge","src":1,"dst":500},
		{"op":"no_such_op"}]}`))
	if got.Applied != 1 || len(got.Errors) != 2 || !strings.Contains(got.Errors["1"], "unknown node") ||
		!strings.Contains(got.Errors["2"], "no_such_op") || strings.Contains(got.Errors["2"], "placeholder") {
		t.Fatalf("/update partial: %+v", got)
	}
	// Nothing applied: the first failure decides the status.
	wantEnvelope(t, post("/update", `{"mutations":[{"op":"add_edge","src":1,"dst":500},{"op":"no_such_op"}]}`), 404, "not_found")
	wantEnvelope(t, post("/update", `{"mutations":[{"op":"no_such_op"},{"op":"add_edge","src":1,"dst":500}]}`), 400, "bad_request")
	wantEnvelope(t, post("/update", `{"op":"no_such_op"}`), 400, "bad_request")
}

// TestMutationsFeed covers GET /mutations over a real server: the cursor,
// the version the feed has delivered through, both codecs, and 410 once
// the bounded log has trimmed past the cursor.
func TestMutationsFeed(t *testing.T) {
	srv := newNodeServer(t, serve.Config{})
	h := New(srv, srv, nil, 0)
	for i := 0; i < 2; i++ {
		if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(3, []float64{0.25, float64(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(query string) (uint64, int, string) {
		t.Helper()
		rec := serveReq(h, "GET", "/mutations"+query, nil)
		var body struct {
			Version uint64            `json:"version"`
			Entries []json.RawMessage `json:"entries"`
		}
		if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Entries == nil {
			t.Fatalf("GET /mutations%s: %d %s", query, rec.Code, rec.Body.String())
		}
		return body.Version, len(body.Entries), rec.Body.String()
	}
	for query, want := range map[string][2]uint64{
		"":         {2, 2},
		"?since=0": {2, 2},
		"?since=1": {2, 1},
		"?since=2": {2, 0},
		"?since=9": {9, 0}, // nothing delivered: the cursor itself, not the live version
	} {
		if v, n, body := feed(query); v != want[0] || uint64(n) != want[1] {
			t.Errorf("GET /mutations%s: version %d, %d entries, want %v: %s", query, v, n, want, body)
		}
	}
	if _, _, body := feed("?since=0&codec=f64"); !strings.Contains(body, `"feat":[0.25,1]`) {
		t.Errorf("f64 feed: %s", body)
	}
	if _, _, body := feed("?since=0&codec=q8"); !strings.Contains(body, `"feat_q8"`) || strings.Contains(body, `"feat":`) {
		t.Errorf("q8 feed: %s", body)
	}

	for i := 0; i < graph.DefaultLogCap; i++ {
		if _, err := srv.Apply(context.Background(), []graph.Mutation{graph.UpdateNodeFeat(4, []float64{1, float64(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	msg := wantEnvelope(t, serveReq(h, "GET", "/mutations?since=0", nil), 410, "gone")
	if msg != "mutation log trimmed past version 0; resync from a fresh snapshot" {
		t.Errorf("gone message %q", msg)
	}
}

// TestMetricsLast: /metrics returns the newest 60 samples by default, all
// of them for last=0, and the newest N for last=N.
func TestMetricsLast(t *testing.T) {
	srv := newNodeServer(t, serve.Config{FlightInterval: time.Millisecond})
	h := New(&fakeAPI{}, srv, nil, 0)
	for deadline := time.Now().Add(10 * time.Second); len(srv.Flight()) <= 61; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("flight ring holds %d samples after 10s", len(srv.Flight()))
		}
	}
	samples := func(query string) int {
		t.Helper()
		rec := serveReq(h, "GET", "/metrics"+query, nil)
		var body struct {
			IntervalMs int64             `json:"interval_ms"`
			Slots      int               `json:"slots"`
			Samples    []json.RawMessage `json:"samples"`
		}
		if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.IntervalMs != 1 || body.Slots != 3600 {
			t.Fatalf("GET /metrics%s: %d %s", query, rec.Code, rec.Body.String())
		}
		return len(body.Samples)
	}
	if n := samples(""); n != 60 {
		t.Errorf("default: %d samples, want 60", n)
	}
	if n := samples("?last=5"); n != 5 {
		t.Errorf("last=5: %d samples", n)
	}
	if n := samples("?last=0"); n <= 61 {
		t.Errorf("last=0: %d samples, want the whole ring", n)
	}
}

func TestHealthz(t *testing.T) {
	rec := serveReq(New(&fakeAPI{}, nil, nil, 0), "GET", "/healthz", nil)
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestClusterRoutesNeedReplica: without a replica the cluster-only routes
// do not exist.
func TestClusterRoutesNeedReplica(t *testing.T) {
	h := New(&fakeAPI{}, nil, nil, 0)
	for _, r := range []struct{ method, target string }{
		{"GET", "/placement"}, {"GET", "/cluster"}, {"POST", "/admin/migrate?slot=1&to=0"},
	} {
		if rec := serveReq(h, r.method, r.target, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.target, rec.Code)
		}
	}
}

// TestDeadlineReachesAPI: the edge deadline is the context the API sees,
// and its expiry is the 408 envelope.
func TestDeadlineReachesAPI(t *testing.T) {
	h := New(&fakeAPI{block: true}, nil, nil, 20*time.Millisecond)
	wantEnvelope(t, serveReq(h, "GET", "/score?node=1", nil), 408, "deadline_exceeded")
}
