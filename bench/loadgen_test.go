package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// stallTarget answers at once except for one request, on which it stalls.
type stallTarget struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallTarget) do(int, *request) outcome {
	if s.calls.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return outcomeOK
}

func readTraffic(n int) *traffic {
	return &traffic{pool: make([]request, n)}
}

// A server that stalls must not see less load: every planned request is
// still sent, and the ones that came due during the stall are charged the
// wait, because latency runs from the due time.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const rate, stall = 1000.0, 100 * time.Millisecond
	tg := &stallTarget{stallAt: 100, stall: stall}
	p := openLoop(tg, readTraffic(64), 0, rate, 400*time.Millisecond, 1)
	if p.sent != p.planned || p.planned != 400 {
		t.Fatalf("sent %d of %d planned (want 400): a stall lowered offered load", p.sent, p.planned)
	}
	if p.failed != 0 || p.unsent != 0 {
		t.Fatalf("failed=%d unsent=%d, want 0", p.failed, p.unsent)
	}
	// About stall*rate requests came due while the one worker was stuck;
	// the first of them waited nearly the whole stall.
	delayed := 0
	for _, ms := range p.readMs {
		if ms > 20 {
			delayed++
		}
	}
	if delayed < 40 {
		t.Errorf("only %d requests were charged more than 20 ms; the stall did not reach the requests behind it", delayed)
	}
	if worst := p.readMs[len(p.readMs)-1]; worst < 90 {
		t.Errorf("worst latency %.1f ms, want about the %v stall", worst, stall)
	}
	// The generator itself was never late: a worker that comes free after a
	// request is due sends at once.
	if late := p.lateMs[len(p.lateMs)*9/10]; late > 5 {
		t.Errorf("p90 generator lateness %.2f ms on an idle machine", late)
	}
}

func TestOpenLoopAbandonsWhatItCannotSendInTwiceTheWindow(t *testing.T) {
	tg := &stallTarget{stallAt: 1, stall: 500 * time.Millisecond}
	p := openLoop(tg, readTraffic(8), 0, 1000, 100*time.Millisecond, 1)
	if p.unsent == 0 || p.failed != p.unsent {
		t.Errorf("unsent=%d failed=%d: requests unsent at the hard stop must count as failed", p.unsent, p.failed)
	}
	if p.backlogEnd <= p.backlogMid {
		t.Errorf("backlog %.1f -> %.1f under a stalled server, want it growing", p.backlogMid, p.backlogEnd)
	}
}

func TestWritesAreNeverSentTwice(t *testing.T) {
	tr := &traffic{pool: []request{{kind: kindScore}, {kind: kindUpdate}},
		writes: []request{{kind: kindUpdate, batch: 0}, {kind: kindUpdate, batch: 1}}}
	var batches []int
	for i := 0; i < 6; i++ {
		if r := tr.at(i); r == nil {
			batches = append(batches, -1)
		} else if r.kind == kindUpdate {
			batches = append(batches, r.batch)
		}
	}
	want := []int{0, 1, -1} // the pool wraps; the stream does not
	if len(batches) != len(want) {
		t.Fatalf("write positions gave %v, want %v", batches, want)
	}
	for i := range want {
		if batches[i] != want[i] {
			t.Fatalf("write positions gave %v, want %v", batches, want)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	for _, tc := range []struct {
		mid, end, rate float64
		want           bool
	}{
		{0, 0, 1000, false},
		{0, 2, 100, false},      // two requests of slack at any rate
		{0, 3, 100, true},       // 30 ms of schedule piled up at 100/s
		{0, 40, 10000, false},   // 4 ms of schedule at 10000/s: in flight, not piling up
		{0, 60, 10000, true},    // 6 ms of schedule
		{500, 400, 1000, false}, // draining
		{100, 106, 1000, true},
	} {
		if got := backlogGrowing(tc.mid, tc.end, tc.rate); got != tc.want {
			t.Errorf("backlogGrowing(%v, %v, rate %v) = %v, want %v", tc.mid, tc.end, tc.rate, got, tc.want)
		}
	}
}

func TestJudgeRung(t *testing.T) {
	fast := func() *phase {
		return &phase{rate: 1000, readMs: seq(2000), lateMs: make([]float64, 2000)}
	}
	if v := judgeRung(fast(), 3000); !v.meets || v.tail != "p99" || v.tailMs != 1980 {
		t.Errorf("a rung within every limit: %+v", v)
	}
	if v := judgeRung(fast(), 1500); v.meets || v.void {
		t.Errorf("p99 over the limit must miss, not void: %+v", v)
	}
	p := fast()
	p.failed = 1
	if v := judgeRung(p, 3000); v.meets {
		t.Errorf("a failed request must miss the limit: %+v", v)
	}
	p = fast()
	p.backlogEnd = 50
	if v := judgeRung(p, 3000); v.meets {
		t.Errorf("a growing backlog must miss the limit: %+v", v)
	}
	p = fast()
	for i := range p.lateMs {
		p.lateMs[i] = 700 // the generator ran a fifth of the limit late
	}
	if v := judgeRung(p, 3000); !v.void {
		t.Errorf("a late generator voids the rung: %+v", v)
	}
}
