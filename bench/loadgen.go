package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type reqKind uint8

const (
	kindScore reqKind = iota
	kindLink
	kindScores
	kindUpdate
)

// request is one generated operation: preformatted wire bytes plus, for a
// read whose answer is known in advance, the exact expected body.
type request struct {
	kind reqKind
	wire []byte
	want []byte
	// batch indexes the workload's mutation stream and muts is how many
	// mutations it holds (kindUpdate only).
	batch, muts int
}

type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeWrong
)

// target performs one request on behalf of generator worker w.
type target interface {
	do(w int, r *request) outcome
}

// traffic is a seeded request sequence. Reads cycle through a fixed pool;
// every position marked as a write takes the next unused mutation batch, so
// no batch is ever sent twice.
type traffic struct {
	pool   []request
	writes []request
	wnext  atomic.Int64
}

// at returns the request at schedule position i, or nil when the mutation
// stream is exhausted.
func (t *traffic) at(i int) *request {
	if r := &t.pool[i%len(t.pool)]; r.kind != kindUpdate {
		return r
	}
	return t.nextWrite()
}

// nextWrite takes the next unused mutation batch, nil once none is left.
func (t *traffic) nextWrite() *request {
	w := int(t.wnext.Add(1)) - 1
	if w >= len(t.writes) {
		return nil
	}
	return &t.writes[w]
}

// phase is the outcome of one generator phase. Latencies are milliseconds.
type phase struct {
	rate              float64 // offered requests/s; 0 for a closed loop
	planned           int
	sent, ok          int
	failed, wrong     int
	unsent            int // due but never sent before the hard stop
	readMs, writeMs   []float64
	lateMs            []float64
	backlogMid        float64 // mean over the tenth of the window before its midpoint
	backlogEnd        float64 // mean over the last tenth of the window
	completedInWindow int
}

type workerLog struct {
	readMs, writeMs, lateMs []float64
	sent, ok, failed, wrong int
	inWindow                int
}

func (l *workerLog) record(r *request, out outcome, latMs float64) {
	l.sent++
	switch out {
	case outcomeOK:
		l.ok++
	case outcomeFailed:
		l.failed++
	case outcomeWrong:
		l.wrong++
	}
	if r.kind == kindUpdate {
		l.writeMs = append(l.writeMs, latMs)
	} else {
		l.readMs = append(l.readMs, latMs)
	}
}

func mergeLogs(p *phase, logs []workerLog) {
	for i := range logs {
		l := &logs[i]
		p.sent += l.sent
		p.ok += l.ok
		p.failed += l.failed
		p.wrong += l.wrong
		p.completedInWindow += l.inWindow
		p.readMs = append(p.readMs, l.readMs...)
		p.writeMs = append(p.writeMs, l.writeMs...)
		p.lateMs = append(p.lateMs, l.lateMs...)
	}
	sort.Float64s(p.readMs)
	sort.Float64s(p.writeMs)
	sort.Float64s(p.lateMs)
}

// generatorWorkers is the number of sender goroutines, each with its own
// connection: one per core, so the generator never asks for more CPU than
// the box has.
func generatorWorkers() int { return runtime.NumCPU() }

// openLoop offers rate requests/s for dur on a fixed schedule: request i is
// due at start + i/rate whatever the server does. A worker that is free
// before a request is due sleeps until then; one that comes free late sends
// at once. Latency runs from the due time, so a stall is charged to every
// request it delays and offered load never drops. Requests still unsent at
// start + 2*dur are abandoned and count as failed.
func openLoop(tg target, tr *traffic, offset int, rate float64, dur time.Duration, workers int) *phase {
	p := &phase{rate: rate, planned: int(rate * dur.Seconds())}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	hardStop := start.Add(2 * dur)
	var next atomic.Int64
	logs := make([]workerLog, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer preciseTimers()()
			l := &logs[w]
			free := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= p.planned {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				send := time.Now()
				if send.After(hardStop) {
					return
				}
				r := tr.at(offset + i)
				if r == nil {
					l.sent++
					l.failed++
					continue
				}
				// How late the generator itself ran: the gap between the
				// moment the request could first go (due, and a worker
				// free) and the moment it went.
				ready := due
				if free.After(ready) {
					ready = free
				}
				l.lateMs = append(l.lateMs, ms(send.Sub(ready)))
				out := tg.do(w, r)
				free = time.Now()
				l.record(r, out, ms(free.Sub(due)))
			}
		}(w)
	}
	// backlog = requests already due that no worker has picked up yet.
	backlog := func(at time.Time) int {
		due := int(at.Sub(start)/interval) + 1
		if due > p.planned {
			due = p.planned
		}
		claimed := int(next.Load())
		if claimed > due {
			claimed = due
		}
		return due - claimed
	}
	// One reading of the backlog is noise (a single slow reply moves it),
	// so each figure is the mean of readings 2 ms apart over a tenth of
	// the window.
	meanBacklog := func(from, to time.Time) float64 {
		time.Sleep(time.Until(from))
		sum, n := 0, 0
		for now := time.Now(); now.Before(to); now = time.Now() {
			sum += backlog(now)
			n++
			time.Sleep(2 * time.Millisecond)
		}
		return float64(sum) / float64(max(n, 1))
	}
	p.backlogMid = meanBacklog(start.Add(dur*4/10), start.Add(dur/2))
	p.backlogEnd = meanBacklog(start.Add(dur*9/10), start.Add(dur))
	wg.Wait()
	mergeLogs(p, logs)
	p.unsent = p.planned - p.sent
	p.failed += p.unsent
	return p
}

// closedLoop runs one client per worker, each sending its next request as
// soon as the previous one answers, for dur.
func closedLoop(tg target, tr *traffic, offset int, dur time.Duration, workers int) *phase {
	p := &phase{}
	start := time.Now()
	stop := start.Add(dur)
	var next atomic.Int64
	logs := make([]workerLog, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := &logs[w]
			for {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				r := tr.at(offset + int(next.Add(1)) - 1)
				if r == nil {
					l.sent++
					l.failed++
					return
				}
				out := tg.do(w, r)
				t1 := time.Now()
				l.record(r, out, ms(t1.Sub(t0)))
				if !t1.After(stop) {
					l.inWindow++
				}
			}
		}(w)
	}
	wg.Wait()
	mergeLogs(p, logs)
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// backlogGrowing reports whether a rung ended with more due-but-unsent
// requests than it had at its midpoint. The slack, 5 ms of the schedule and
// at least two requests, keeps a rung that is keeping up from failing on
// the requests that happen to be in flight when the backlog is read.
func backlogGrowing(mid, end, rate float64) bool {
	return end > mid+math.Max(2, rate*0.005)
}

// rungVerdict is the latency-limit test for one rung of the rate ladder.
type rungVerdict struct {
	meets  bool
	void   bool    // the rung says nothing about the server
	tailMs float64 // the percentile the rung was judged on
	tail   string  // its name: "p99", "p95" or "p90"
	why    string
}

// tailPercentile is the highest of p99, p95 and p90 that has minBeyond
// samples beyond it: a slow workload's short rung holds too few requests
// for a p99.
func tailPercentile(sorted []float64) (float64, string, error) {
	var err error
	for _, t := range []struct {
		p    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		var v float64
		if v, err = percentile(sorted, t.p); err == nil {
			return v, t.name, nil
		}
	}
	return 0, "", err
}

// judgeRung applies the limit: every request answered correctly, the tail
// latency within limitMs, and no growing backlog. A rung on which the
// generator itself ran late by more than a fifth of the limit says nothing
// about the server and is void.
func judgeRung(p *phase, limitMs float64) rungVerdict {
	v := rungVerdict{}
	if late, _, err := tailPercentile(p.lateMs); err == nil && late > 0.2*limitMs {
		v.void, v.why = true, "generator late"
		return v
	}
	tail, name, err := tailPercentile(p.readMs)
	if err != nil {
		v.void, v.why = true, err.Error()
		return v
	}
	v.tailMs, v.tail = tail, name
	switch {
	case p.failed > 0 || p.wrong > 0:
		v.why = "failures"
	case tail > limitMs:
		v.why = name + " over limit"
	case backlogGrowing(p.backlogMid, p.backlogEnd, p.rate):
		v.why = "backlog growing"
	default:
		v.meets = true
	}
	return v
}
