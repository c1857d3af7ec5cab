package httpapi

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// FuzzPostBodies drives arbitrary bytes through POST /scores and POST
// /update, the two network-facing body parsers. Whatever the body, the
// handler must not panic, must answer 200, 400, 404 or 413 (never 5xx:
// nothing here is the server's fault), and may key "errors" only by an id
// or position the request named.
func FuzzPostBodies(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":[1,2]}`,
		`{"nodes":[]}`,
		`{"nodes":[1,500,2,500]}`,
		`{"nodes":[500,-1]}`,
		`{"nodes":[1]}xyz`,
		`{"op":"add_node","id":5,"feat":[1,2]}`,
		`{"op":"add_node","id":5}xyz`,
		`{"op":"no_such_op"}`,
		`{"mutations":[{"op":"add_node","id":7},{"op":"add_edge","src":1,"dst":500},{"op":"no_such_op"}]}`,
		`{"mutations":[{"op":"update_feat","id":2,"feat_q8":"gH8A","feat_scale":0.5}]}`,
		`{"mutations":5}`,
		``,
		`null`,
	} {
		f.Add(seed)
	}
	h := New(&fakeAPI{}, nil, nil, 0)
	f.Fuzz(func(t *testing.T, body string) {
		for _, target := range []string{"/scores", "/update"} {
			rec := serveReq(h, "POST", target, strings.NewReader(body))
			switch rec.Code {
			case 200, 400, 404, 413:
			default:
				t.Fatalf("POST %s %q: status %d: %s", target, body, rec.Code, rec.Body.String())
			}
			var answer struct {
				Errors map[string]string `json:"errors"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
				t.Fatalf("POST %s %q: answer is not JSON: %v", target, body, err)
			}
			if rec.Code != 200 {
				continue
			}
			named := namedKeys(t, target, body)
			for key := range answer.Errors {
				if !named[key] {
					t.Fatalf("POST %s %q: errors key %q names nothing in the request", target, body, key)
				}
			}
		}
	})
}

// namedKeys returns the "errors" keys a successfully parsed body can
// produce: its ids for /scores, its mutation positions for /update.
func namedKeys(t *testing.T, target, body string) map[string]bool {
	named := map[string]bool{}
	if target == "/scores" {
		var req struct{ Nodes []int64 }
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("POST /scores %q answered 200 but does not parse: %v", body, err)
		}
		for _, id := range req.Nodes {
			named[strconv.FormatInt(id, 10)] = true
		}
		return named
	}
	var batch struct{ Mutations []json.RawMessage }
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatalf("POST /update %q answered 200 but does not parse: %v", body, err)
	}
	for i := 0; i < max(len(batch.Mutations), 1); i++ {
		named[strconv.Itoa(i)] = true
	}
	return named
}
