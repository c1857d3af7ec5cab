package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// warmAPI answers every Score with one shared slice, so the handler's own
// allocations are all that a run counts.
type warmAPI struct{ fakeAPI }

var warmScores = []float64{0.25}

func (warmAPI) Score(context.Context, int64) ([]float64, error) { return warmScores, nil }

// discardWriter drops the body and reuses one header map.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// scoreAllocCeiling is what a warm GET /score costs through the handler:
// query parsing, the answer map and the JSON encoder. It is the count of
// the inline handler this package replaced; lower it when the encoder
// stops allocating, never raise it.
const scoreAllocCeiling = 12

func TestWarmScoreAllocs(t *testing.T) {
	h := New(&warmAPI{}, nil, nil, 0)
	req := httptest.NewRequest("GET", "/score?node=7", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > scoreAllocCeiling {
		t.Fatalf("warm GET /score allocates %v times per request, ceiling %d", got, scoreAllocCeiling)
	}
}
