package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"agl"
	"agl/internal/core"
	"agl/internal/graph"
	"agl/internal/placement"
	"agl/internal/rpcx"
	"agl/internal/serve"
)

// probeTime is how long each single-connection round-trip probe runs.
const probeTime = 300 * time.Millisecond

// replayCalls is how many scheduled requests the in-process replay covers.
const replayCalls = 4000

// wireProbes measures bare round trips on one connection, closed loop: the
// top rung of the kernel-to-wire ladder.
func (r *serveRun) wireProbes() error {
	probe := func(kind reqKind) (float64, error) {
		var reqs []request
		for i := range r.traffic.pool {
			if r.traffic.pool[i].kind == kind {
				reqs = append(reqs, r.traffic.pool[i])
			}
		}
		if len(reqs) == 0 {
			return 0, fmt.Errorf("schedule holds no request of kind %d", kind)
		}
		p := closedLoop(r.target, &traffic{pool: reqs}, 0, probeTime, 1)
		if p.failed > 0 || p.wrong > 0 {
			return 0, fmt.Errorf("round-trip probe: %d failed, %d wrong: %s", p.failed, p.wrong, r.target.firstProblem())
		}
		r.res.attempted += int64(p.sent)
		return median(p.readMs) * 1e3, nil
	}
	rtt, err := probe(kindScore)
	if err != nil {
		return err
	}
	r.res.set("aglserve.http.rtt_us", rtt)
	bulk, err := probe(kindScores)
	if err != nil {
		return err
	}
	r.res.set("aglserve.http.scores32_rtt_us", bulk)
	if r.spec.writeFrac > 0 {
		// Writes change the graph, so this probe runs after the audit and
		// only where writes are part of the workload.
		p := closedLoop(r.target, &traffic{pool: []request{{kind: kindUpdate}}, writes: r.traffic.writes[r.traffic.wnext.Load():]},
			0, probeTime, 1)
		if p.failed > 0 || p.wrong > 0 {
			return fmt.Errorf("update round-trip probe: %d failed, %d wrong: %s", p.failed, p.wrong, r.target.firstProblem())
		}
		r.res.attempted += int64(p.sent)
		r.res.set("aglserve.http.update_rtt_us", median(p.writeMs)*1e3)
	}
	return nil
}

// tracedStore wraps a Store so every lookup the server makes is a span.
type tracedStore struct {
	serve.Store
	tr *tracer
}

func (s tracedStore) LookupRow(id int64) (serve.Row, bool) {
	defer s.tr.leaf("serve.store")()
	return s.Store.LookupRow(id)
}

func (s tracedStore) LookupInto(dst []float64, id int64) ([]float64, bool) {
	defer s.tr.leaf("serve.store")()
	return s.Store.LookupInto(dst, id)
}

// scoreAPI is the request surface a Server and a Replica share.
type scoreAPI interface {
	Score(ctx context.Context, node int64) ([]float64, error)
	ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error)
	ScoreLink(ctx context.Context, src, dst int64) (float64, error)
	Apply(ctx context.Context, muts []graph.Mutation) (*serve.ApplyResult, error)
}

// replicaPair is two in-process replicas joined over loopback, the
// smallest cluster in which a request can pay a proxy hop.
type replicaPair struct {
	srv [2]*serve.Server
	rep [2]*serve.Replica
}

func (r *serveRun) newReplicaPair(wrap func(serve.Store) serve.Store) (*replicaPair, error) {
	p := &replicaPair{}
	addrs := make([]string, 2)
	for i := range p.srv {
		var err error
		if p.srv[i], err = r.newServer(wrap); err != nil {
			return nil, err
		}
		if p.rep[i], err = serve.NewReplica(i, p.srv[i], "127.0.0.1:0"); err != nil {
			return nil, err
		}
		addrs[i] = p.rep[i].Addr()
	}
	table, err := placement.Even(addrs, placement.DefaultSlots)
	if err != nil {
		return nil, err
	}
	for _, rep := range p.rep {
		if err := rep.Join(table); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *replicaPair) close() {
	for i := range p.rep {
		if p.rep[i] != nil {
			p.rep[i].Close()
		}
		if p.srv[i] != nil {
			p.srv[i].Close()
		}
	}
}

// replay sends the first replayCalls scheduled requests through api, one
// at a time, each under a "request" root span when tr is set, and returns
// the wall time.
func (r *serveRun) replay(api scoreAPI, prefix string, tr *tracer) (time.Duration, error) {
	ctx := context.Background()
	nextWrite := len(r.spec.precondition)
	start := time.Now()
	for i := 0; i < replayCalls; i++ {
		c := &r.calls[i]
		endReq := tr.begin("request")
		var err error
		switch c.kind {
		case kindScore:
			end := tr.begin(prefix + ".score")
			_, err = api.Score(ctx, c.ids[0])
			end()
		case kindLink:
			end := tr.begin(prefix + ".link")
			_, err = api.ScoreLink(ctx, c.ids[0], c.ids[1])
			end()
		case kindScores:
			end := tr.begin(prefix + ".scores")
			_, errs := api.ScoreMany(ctx, c.ids)
			end()
			for _, e := range errs {
				if e != nil {
					err = e
				}
			}
		case kindUpdate:
			end := tr.begin("serve.dynamic")
			_, err = api.Apply(ctx, r.writes[nextWrite].muts)
			end()
			nextWrite++
		}
		endReq()
		if err != nil {
			return 0, fmt.Errorf("replay of request %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// serveLayers measures the serving tier one public call at a time, in
// process, on servers built from the run's own model, graph and embeddings:
// the rungs of the kernel-to-wire ladder below the wire.
func serveLayers(r *serveRun, tr *tracer) error {
	res := r.res
	ctx := context.Background()
	ids := r.g.SortedIDs()

	// The dot kernel: one pairwise score at the embedding width.
	model, err := loadModel(r.modelPath)
	if err != nil {
		return err
	}
	embs := r.art.pass.inf.Embeddings
	a, b := embs[ids[0]], embs[ids[1]]
	res.set("tensor.dot_ns", timeOp(opBudget, func() { model.Edge.ScoreVec(a, b) }))
	res.set("placement.slotof_ns", timeOp(opBudget, func() { placement.SlotOf(ids[0], placement.DefaultSlots) }))

	srv, err := r.newServer(nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	end := tr.begin("serve.score")
	srv.Score(ctx, ids[0]) // now cached
	res.set("serve.cache.hit_ns", timeOp(opBudget, func() { srv.Score(ctx, ids[0]) }))
	// Cycling through every id never finds one in a cache a fifth the size.
	i := 0
	res.set("serve.score.warm_ns", timeOp(opBudget, func() { srv.Score(ctx, ids[i%len(ids)]); i++ }))
	end()
	end = tr.begin("serve.link")
	res.set("serve.link.warm_ns", timeOp(opBudget, func() { srv.ScoreLink(ctx, ids[i%len(ids)], ids[(i+1)%len(ids)]); i++ }))
	end()

	// Cold: no store, so every request extracts its k-hop neighbourhood
	// and runs a forward pass; each id is asked once, so nothing is cached.
	coldModel, err := loadModel(r.modelPath)
	if err != nil {
		return err
	}
	cold, err := agl.Serve(r.serveConfig(), coldModel, r.g, nil)
	if err != nil {
		return err
	}
	defer cold.Close()
	end = tr.begin("serve.score")
	var scoreUs, linkUs []float64
	for k := 0; k < 400; k++ {
		t0 := time.Now()
		if _, err := cold.Score(ctx, ids[(k*37)%len(ids)]); err != nil {
			return err
		}
		scoreUs = append(scoreUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	end()
	end = tr.begin("serve.link")
	for k := 0; k < 200; k++ {
		t0 := time.Now()
		if _, err := cold.ScoreLink(ctx, ids[(k*41+7)%len(ids)], ids[(k*43+11)%len(ids)]); err != nil {
			return err
		}
		linkUs = append(linkUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	end()
	res.set("serve.score.cold_us", median(scoreUs))
	res.set("serve.link.cold_us", median(linkUs))

	if err := spanned(tr, "serve.dynamic", func() error { return dynamicLayers(r) }); err != nil {
		return err
	}
	if err := spanned(tr, "serve.replica", func() error { return replicaLayers(r, ids) }); err != nil {
		return err
	}
	return tracedReplay(r, tr)
}

// dynamicLayers times a 4-mutation batch through each layer of the write
// path: the graph's copy-on-write Apply, the local flattener's Rebind, and
// Server.Apply, which does both plus the k-hop invalidation.
func dynamicLayers(r *serveRun) error {
	res := r.res
	ctx := context.Background()
	batches, err := mutationStream(newRand(r.env.seed+2), r.g, repeated(mutationsPerBatch, 32))
	if err != nil {
		return err
	}
	flatCfg := serveFlat
	lf := core.NewLocalFlattener(flatCfg, r.g)
	var applyMs, rebindMs []float64
	for i := range batches {
		t0 := time.Now()
		next, errs := r.g.Apply(batches[i].muts)
		t1 := time.Now()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		lf.Rebind(next, batches[i].muts)
		applyMs = append(applyMs, ms(t1.Sub(t0)))
		rebindMs = append(rebindMs, ms(time.Since(t1)))
	}
	res.set("graph.apply_ms", median(applyMs))
	res.set("core.local.rebind_ms", median(rebindMs))

	ids := r.g.SortedIDs()
	rng := newRand(r.env.seed + 3)
	featUs := make([]float64, 2000)
	for i := range featUs {
		t0 := time.Now()
		if _, err := lf.GraphFeature(ids[rng.Intn(len(ids))]); err != nil {
			return err
		}
		featUs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(featUs)
	res.set("core.local.feature_us", featUs[len(featUs)/2])
	hub, err := percentile(featUs, 0.99)
	if err != nil {
		return err
	}
	res.set("core.local.feature_hub_p99_us", hub)

	srv, err := r.newServer(nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	var serverMs []float64
	for i := range batches {
		t0 := time.Now()
		if _, err := srv.Apply(ctx, batches[i].muts); err != nil {
			return err
		}
		serverMs = append(serverMs, ms(time.Since(t0)))
	}
	res.set("serve.dynamic.apply_ms", median(serverMs))
	return nil
}

// echo is the trivial service behind rpcx.call_us.
type echo struct{}

func (echo) Ping(args *int64, reply *int64) error { *reply = *args; return nil }

// replicaLayers times a score served by the replica asked and one proxied
// to its peer, and a bare rpcx round trip for comparison.
func replicaLayers(r *serveRun, ids []int64) error {
	res := r.res
	ctx := context.Background()
	pair, err := r.newReplicaPair(nil)
	if err != nil {
		return err
	}
	defer pair.close()
	table := pair.rep[0].Table()
	var own, other []int64
	for _, id := range ids {
		if table.OwnerOf(id) == 0 {
			own = append(own, id)
		} else {
			other = append(other, id)
		}
	}
	var opErr error
	i := 0
	local := timeOp(opBudget, func() {
		if _, err := pair.rep[0].Score(ctx, own[i%len(own)]); err != nil {
			opErr = err
		}
		i++
	})
	proxied := timeOp(2*opBudget, func() {
		if _, err := pair.rep[0].Score(ctx, other[i%len(other)]); err != nil {
			opErr = err
		}
		i++
	})
	if opErr != nil {
		return opErr
	}
	res.set("serve.replica.local_ns", local)
	res.set("serve.replica.proxied_ns", proxied)
	res.set("rpcx.hop_us", (proxied-local)/1e3)

	rs := rpcx.NewServer()
	defer rs.Close()
	if err := rs.Register("Echo", echo{}); err != nil {
		return err
	}
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	client := rpcx.NewClient(addr)
	defer client.Close()
	var in, out int64
	res.set("rpcx.call_us", timeOp(2*opBudget, func() {
		if err := client.Call(ctx, "Echo.Ping", &in, &out); err != nil {
			opErr = err
		}
	})/1e3)
	return opErr
}

// tracedReplay replays the schedule's first requests in process twice, on
// fresh servers: once plain, once with a span around every call and every
// store lookup. The difference is what tracing costs.
func tracedReplay(r *serveRun, tr *tracer) error {
	run := func(t *tracer) (time.Duration, error) {
		var wrap func(serve.Store) serve.Store
		if t != nil {
			wrap = func(s serve.Store) serve.Store { return tracedStore{s, t} }
		}
		if r.spec.replicas > 1 {
			pair, err := r.newReplicaPair(wrap)
			if err != nil {
				return 0, err
			}
			defer pair.close()
			return r.replay(pair.rep[0], "serve.replica", t)
		}
		srv, err := r.newServer(wrap)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		return r.replay(srv, "serve", t)
	}
	plain, err := run(nil)
	if err != nil {
		return err
	}
	traced, err := run(tr)
	if err != nil {
		return err
	}
	r.res.set("trace.overhead_frac", traced.Seconds()/plain.Seconds()-1)
	self := selfTimes(tr.spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		r.res.notef("trace self time %s %.3f ms", name, float64(self[name])/1e6)
	}
	return nil
}

// serveLadder derives the rung-to-rung gaps of the kernel-to-wire ladder:
// dot kernel -> store lookup -> cache hit -> warm score -> cold score, then
// warm score -> proxied score (rpcx.hop_us) and warm score -> HTTP round
// trip (aglserve.http.overhead_us).
func serveLadder(res *result) {
	dot, lookup := res.get("tensor.dot_ns"), res.get("serve.store.lookup_ns.mem")
	hit, warm := res.get("serve.cache.hit_ns"), res.get("serve.score.warm_ns")
	res.set("ladder.gap.lookup_ns", lookup-dot)
	res.set("ladder.gap.cache_ns", hit-lookup)
	res.set("ladder.gap.warm_ns", warm-hit)
	res.set("ladder.gap.cold_us", res.get("serve.score.cold_us")-warm/1e3)
	res.set("aglserve.http.overhead_us", res.get("aglserve.http.rtt_us")-warm/1e3)
	// A bulk request does 32 warm or cached scores; charge it the cheaper.
	res.set("aglserve.http.scores32_overhead_us", res.get("aglserve.http.scores32_rtt_us")-scoresPerBulk*hit/1e3)
}
