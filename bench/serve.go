package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"agl"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/serve"
)

// Shares of --seconds each timed phase gets. The reference rung holds the
// workload's reference rate longest, because p50 and p99 are read off it.
const (
	referenceShare = 0.5
	rungShare      = 0.075 // each of the four other rungs
	closedShare    = 0.2
)

// serveRun holds one serve workload's processes, reference and traffic.
type serveRun struct {
	spec *serveSpec
	env  *runEnv
	res  *result

	art       *artifacts
	g         *graph.Graph // the graph as aglserve loads it, from the same files
	modelPath string
	servers   []*server
	ref       *serve.Server // in-process reference built from the same model and graph
	calls     []call
	writes    []call
	traffic   *traffic
	target    *httpTarget
}

// serveConfig is the configuration both aglserve (by flag) and every
// in-process server get.
func (r *serveRun) serveConfig() agl.ServeConfig {
	return agl.ServeConfig{MaxNeighbors: serveFlat.MaxNeighbors, Strategy: serveFlat.Strategy,
		Seed: sutSeed, CacheSize: r.spec.cache, FlightInterval: -1}
}

func runServe(w *workload, env *runEnv) (*result, error) {
	r := &serveRun{spec: w.serve, env: env, res: newResult(w.name, env)}
	setupStart := time.Now()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer r.ref.Close()
	defer r.target.close()
	r.res.set("setup_s", time.Since(setupStart).Seconds())

	if err := r.timedPhases(); err != nil {
		return nil, err
	}
	if err := r.audit(); err != nil {
		return nil, err
	}
	var rss float64
	for _, s := range r.servers {
		mb, err := peakRSSMB(s.pid())
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	r.res.set("peak_rss_mb", rss)
	pipelineStats(r.res, r.art.pass, serveTrain.Workers)
	r.res.set("pipeline_s", r.art.pass.totalS)
	r.res.set("flat_s", r.art.pass.flatS)
	r.res.set("train_s", r.art.pass.trainS)
	r.res.set("infer_s", r.art.pass.inferS)
	r.res.set("core.trainer.epoch_s_median", epochSeconds(r.art.pass))
	r.res.trainStartupS = trainStartup(r.art.pass)

	if env.traced {
		tr := newTracer()
		if err := r.wireProbes(); err != nil {
			return nil, err
		}
		if err := offlineLayers(r.res, r.art, tr); err != nil {
			return nil, err
		}
		if err := serveLayers(r, tr); err != nil {
			return nil, err
		}
		if err := finishTrace(r.res, tr, env); err != nil {
			return nil, err
		}
		offlineLadder(r.res)
		serveLadder(r.res)
	}
	return r.res, nil
}

// setUp is everything before the first timed request: generate the graph,
// build aglserve, flatten and train the serving model, boot the server or
// servers until /healthz answers, build the in-process reference and the
// request schedule, and warm the cache.
func (r *serveRun) setUp() error {
	env := r.env
	last := time.Now()
	stage := func(name string) {
		r.res.notef("set-up: %s %.2fs", name, time.Since(last).Seconds())
		last = time.Now()
	}
	ds, err := agl.NewUUG(agl.UUGConfig{Nodes: r.spec.nodes, FeatDim: serveFeatDim, Seed: env.seed})
	if err != nil {
		return err
	}
	stage("generate graph")
	bin, err := buildServer(env.root)
	if err != nil {
		return err
	}
	stage("go build ./cmd/aglserve")

	// aglserve loads the graph from TSV tables; the reference loads the
	// same files, so both sides see identical node and edge order.
	nodePath, edgePath := filepath.Join(env.tmpDir, "nodes.tsv"), filepath.Join(env.tmpDir, "edges.tsv")
	if err := writeTables(ds.G, nodePath, edgePath); err != nil {
		return err
	}
	r.g, err = graph.LoadTables(nodePath, edgePath)
	if err != nil {
		return err
	}
	ds.G = r.g
	stage("write and load tables")

	in := &pipelineInput{ds: ds, targets: labeledTargets(ds, serveTrainTargets),
		flat: serveFlat, model: serveModel, train: serveTrain, tmpDir: env.tmpDir}
	p := &pass{}
	if err := p.flattenAndTrain(in, nil); err != nil {
		return err
	}
	r.art = &artifacts{ds: ds, in: in, pass: p}
	stage("flatten and train")
	// The node model also answers /link: a parameter-free dot-product head
	// over the final-layer embeddings.
	model := p.train.Model
	model.Cfg.EdgeHead = gnn.EdgeHeadDot
	r.modelPath = filepath.Join(env.tmpDir, "model.agl")
	if err := saveModel(model, r.modelPath); err != nil {
		return err
	}

	args := []string{"-m", r.modelPath, "-n", nodePath, "-e", edgePath,
		"-s", serveFlat.Strategy.Name(), "-max-neighbors", strconv.Itoa(serveFlat.MaxNeighbors),
		"-seed", strconv.Itoa(sutSeed), "-cache", strconv.Itoa(r.spec.cache)}
	if r.spec.replicas > 1 {
		peers := make([]string, r.spec.replicas)
		for i := range peers {
			if peers[i], err = freeAddr(); err != nil {
				return err
			}
		}
		for i := range peers {
			s, err := startServer(bin, env.tmpDir, append(args, "-peers", strings.Join(peers, ","), "-replica-id", strconv.Itoa(i))...)
			if err != nil {
				return err
			}
			r.servers = append(r.servers, s)
		}
	} else {
		s, err := startServer(bin, env.tmpDir, args...)
		if err != nil {
			return err
		}
		r.servers = append(r.servers, s)
	}

	// While the servers precompute their stores, run GraphInfer here too
	// and build the reference and the request schedule from its output.
	if err := p.infer(in, nil); err != nil {
		return err
	}
	p.totalS = p.flatS + p.trainS + p.inferS
	stage("start servers, GraphInfer in process")
	if r.ref, err = r.newServer(nil); err != nil {
		return err
	}
	if err := r.buildTraffic(); err != nil {
		return err
	}
	stage("reference and request schedule")
	for _, s := range r.servers {
		if err := s.waitHealthy(120 * time.Second); err != nil {
			return err
		}
	}
	stage("wait for /healthz")
	r.target = newHTTPTarget(r.servers[0].addr, generatorWorkers())
	defer stage("warm-up")
	return r.warmUp()
}

func writeTables(g *graph.Graph, nodePath, edgePath string) error {
	write := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(nodePath, func(f *os.File) error { return graph.WriteNodeTable(f, g.Nodes) }); err != nil {
		return err
	}
	return write(edgePath, func(f *os.File) error { return graph.WriteEdgeTable(f, g.Edges) })
}

func saveModel(m *agl.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := agl.SaveModel(m, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModel(path string) (*agl.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return agl.LoadModel(f)
}

// newServer builds an in-process server over the run's model, graph and
// embeddings, each with its own model instance (a Server owns its model).
// wrap, when non-nil, wraps the store, for tracing.
func (r *serveRun) newServer(wrap func(serve.Store) serve.Store) (*serve.Server, error) {
	model, err := loadModel(r.modelPath)
	if err != nil {
		return nil, err
	}
	mem, err := serve.NewStore(0, r.art.pass.inf.Embeddings)
	if err != nil {
		return nil, err
	}
	var store serve.Store = mem
	if wrap != nil {
		store = wrap(store)
	}
	return agl.Serve(r.serveConfig(), model, r.g, store)
}

// buildTraffic generates the request schedule from the seed and, for
// read-only workloads, the exact body every read must return.
func (r *serveRun) buildTraffic() error {
	rng := rand.New(rand.NewSource(r.env.seed))
	ids := r.g.SortedIDs()
	if r.spec.replicas > 1 {
		table, err := placement.Even(make([]string, r.spec.replicas), placement.DefaultSlots)
		if err != nil {
			return err
		}
		ids = nonOwnedIDs(ids, table, 0)
	}
	r.calls = readMix(rng, ids, poolSize, r.spec.writeFrac)
	if r.spec.writeFrac > 0 {
		// Enough batches for every rung and the closed loop at twice the
		// frozen top rate; running out fails the run loudly.
		n := int(2*r.spec.rates[4]*r.env.seconds*r.spec.writeFrac) + 256
		var err error
		if r.writes, err = mutationStream(rng, r.g, append(r.spec.precondition, repeated(mutationsPerBatch, n)...)); err != nil {
			return err
		}
	}
	r.traffic = &traffic{pool: make([]request, len(r.calls)), writes: make([]request, len(r.writes))}
	ctx := context.Background()
	scoreBody := make(map[int64][]byte)
	for i := range r.calls {
		c := &r.calls[i]
		req := request{kind: c.kind}
		if c.kind != kindUpdate {
			wire, err := wireOf(c)
			if err != nil {
				return err
			}
			req.wire = wire
		}
		// With writes in flight a read's answer depends on which batches
		// landed before it; those reads are checked by the audit instead.
		if r.spec.writeFrac == 0 {
			want, err := r.expected(ctx, c, scoreBody)
			if err != nil {
				return err
			}
			req.want = want
		}
		r.traffic.pool[i] = req
	}
	for i := range r.writes {
		wire, err := wireOf(&r.writes[i])
		if err != nil {
			return err
		}
		r.traffic.writes[i] = request{kind: kindUpdate, wire: wire, batch: i, muts: len(r.writes[i].muts)}
	}
	return nil
}

// expected renders the reference's answer to c as the body aglserve sends.
func (r *serveRun) expected(ctx context.Context, c *call, scoreBody map[int64][]byte) ([]byte, error) {
	switch c.kind {
	case kindScore:
		id := c.ids[0]
		if b, ok := scoreBody[id]; ok {
			return b, nil
		}
		scores, err := r.ref.Score(ctx, id)
		if err != nil {
			return nil, err
		}
		b := encodeBody(map[string]any{"node": id, "scores": scores})
		scoreBody[id] = b
		return b, nil
	case kindLink:
		logit, err := r.ref.ScoreLink(ctx, c.ids[0], c.ids[1])
		if err != nil {
			return nil, err
		}
		return encodeBody(map[string]any{"src": c.ids[0], "dst": c.ids[1], "logit": logit, "score": nn.Sigmoid(logit)}), nil
	case kindScores:
		out := make(map[string][]float64, len(c.ids))
		for _, id := range c.ids {
			scores, err := r.ref.Score(ctx, id)
			if err != nil {
				return nil, err
			}
			out[strconv.FormatInt(id, 10)] = scores
		}
		return encodeBody(map[string]any{"scores": out}), nil
	}
	return nil, fmt.Errorf("no expected body for request kind %d", c.kind)
}

// warmUp sends the first few thousand reads of the schedule closed-loop, so
// connections are open, the hot ids are cached and the server's allocator
// has reached its working size before anything is timed.
func (r *serveRun) warmUp() error {
	var reads []request
	for i := range r.traffic.pool {
		if r.traffic.pool[i].kind != kindUpdate {
			reads = append(reads, r.traffic.pool[i])
			if len(reads) == 4096 {
				break
			}
		}
	}
	warm := &traffic{pool: reads}
	p := closedLoop(r.target, warm, 0, 300*time.Millisecond, generatorWorkers())
	if p.failed > 0 || p.wrong > 0 {
		return fmt.Errorf("warm-up: %d failed and %d wrong of %d requests: %s", p.failed, p.wrong, p.sent, r.target.firstProblem())
	}
	// The preconditioning batches are the head of the mutation stream.
	for range r.spec.precondition {
		if out := r.target.do(0, r.traffic.nextWrite()); out != outcomeOK {
			return fmt.Errorf("warm-up: preconditioning batch: %s", r.target.firstProblem())
		}
	}
	return nil
}

// statsSnapshot is the server-side accounting read over HTTP, summed over
// every replica.
type statsSnapshot struct {
	serve.Stats
	forwards, proxiedRetries int64
	cpuS                     float64
}

func (r *serveRun) snapshot() (statsSnapshot, error) {
	var sum statsSnapshot
	for i, s := range r.servers {
		var st serve.Stats
		if err := s.getJSON("/stats", &st); err != nil {
			return sum, err
		}
		sum.Requests += st.Requests
		sum.CacheHits += st.CacheHits
		sum.Collapsed += st.Collapsed
		sum.Warm += st.Warm
		sum.Cold += st.Cold
		sum.Batches += st.Batches
		sum.Shed += st.Shed
		sum.Expired += st.Expired
		sum.LinkRequests += st.LinkRequests
		sum.Mutations += st.Mutations
		sum.Invalidated += st.Invalidated
		sum.Readmitted += st.Readmitted
		sum.DirtyRows += st.DirtyRows
		sum.Version = max(sum.Version, st.Version)
		if r.spec.replicas > 1 && i == 0 {
			var cs serve.ClusterStats
			if err := s.getJSON("/cluster", &cs); err != nil {
				return sum, err
			}
			sum.forwards, sum.proxiedRetries = cs.Forwards, cs.ProxiedRetries
		}
		cpu, err := cpuSeconds(s.pid())
		if err != nil {
			return sum, err
		}
		sum.cpuS += cpu
	}
	return sum, nil
}

// timedPhases runs the five-rung rate ladder in ascending order, then the
// closed loop, and derives every wire-level metric from them.
func (r *serveRun) timedPhases() error {
	res, spec := r.res, r.spec
	workers := generatorWorkers()
	seconds := func(share float64) time.Duration {
		return time.Duration(share * r.env.seconds * float64(time.Second))
	}
	before, err := r.snapshot()
	if err != nil {
		return err
	}
	var refBefore, refAfter statsSnapshot
	phases := make([]*phase, len(spec.rates))
	var dirtyMax int64
	offset := 0
	for i, rate := range spec.rates {
		dur := seconds(rungShare)
		if i == spec.reference {
			dur = seconds(referenceShare)
			if refBefore, err = r.snapshot(); err != nil {
				return err
			}
		}
		p := openLoop(r.target, r.traffic, offset, rate, dur, workers)
		offset += p.planned
		phases[i] = p
		snap, err := r.snapshot()
		if err != nil {
			return err
		}
		if i == spec.reference {
			refAfter = snap
		}
		dirtyMax = max(dirtyMax, snap.DirtyRows)
		r.recordRung(p)
	}
	closed := closedLoop(r.target, r.traffic, offset, seconds(closedShare), workers)
	after, err := r.snapshot()
	if err != nil {
		return err
	}

	ref := phases[spec.reference]
	p50, err := percentile(ref.readMs, 0.50)
	if err != nil {
		return fmt.Errorf("reference rung: %w", err)
	}
	p99, err := percentile(ref.readMs, 0.99)
	if err != nil {
		return fmt.Errorf("reference rung: %w", err)
	}
	res.set("p50_ms", p50)
	res.set("p99_ms", p99)
	deciles := make([]string, 9)
	for d := range deciles {
		deciles[d] = formatValue(ref.readMs[len(ref.readMs)*(d+1)/10])
	}
	res.notef("reference rung: %d reads, latency deciles p10..p90 in ms: %s", len(ref.readMs), strings.Join(deciles, " "))
	closedRPS := float64(closed.completedInWindow) / seconds(closedShare).Seconds()
	res.set("ops_per_s", closedRPS)
	res.set("closed_rps", closedRPS)
	// CPU the servers spent on the reference rung: the offered work there
	// is the same on every commit, so this is the paper's core-minutes axis.
	res.set("cpu_s", refAfter.cpuS-refBefore.cpuS)
	res.set("aglserve.http.cpu_us_per_req", (refAfter.cpuS-refBefore.cpuS)*1e6/float64(ref.sent))

	var maxRate float64
	for i, p := range phases {
		if r.res.rungs[i].Verdict == "meets" {
			maxRate = p.rate
		}
	}
	res.set("max_rate_rps", maxRate)

	if spec.writeFrac > 0 {
		// Writes are a few percent of the schedule: pool them over the
		// four rungs up to the knee so p95 has ten samples beyond it.
		var writes []float64
		for _, p := range phases[:4] {
			writes = append(writes, p.writeMs...)
		}
		sort.Float64s(writes)
		if v, err := percentile(writes, 0.50); err == nil {
			res.set("write_p50_ms", v)
		}
		if v, err := percentile(writes, 0.95); err == nil {
			res.set("write_p95_ms", v)
		} else {
			res.notef("write_p95_ms not reported: %v", err)
		}
	}

	var sent, okN, failed, wrong int
	for _, p := range append(phases, closed) {
		sent += p.sent + p.unsent
		okN += p.ok
		failed += p.failed
		wrong += p.wrong
	}
	res.attempted += int64(sent)
	res.failed += int64(failed)
	res.wrong += int64(wrong)
	if failed+wrong > 0 {
		res.notef("first failed or wrong operation: %s", r.target.firstProblem())
	}
	if late, err := percentile(ref.lateMs, 0.99); err == nil {
		res.set("loadgen.late_p99_ms", late)
	}
	res.set("loadgen.sent", float64(sent))
	res.set("loadgen.ok", float64(okN))
	res.set("loadgen.failed", float64(failed))
	res.set("loadgen.wrong", float64(wrong))

	d := func(f func(*statsSnapshot) int64) float64 { return float64(f(&after) - f(&before)) }
	if reqs := float64(refAfter.Requests - refBefore.Requests); reqs > 0 {
		res.set("serve.cache.hit_ratio", float64(refAfter.CacheHits-refBefore.CacheHits)/reqs)
	}
	batches := d(func(s *statsSnapshot) int64 { return s.Batches })
	cold := d(func(s *statsSnapshot) int64 { return s.Cold })
	res.set("serve.batcher.batches", batches)
	if batches > 0 {
		res.set("serve.batcher.mean_batch", cold/batches)
	}
	res.set("serve.batcher.collapsed", d(func(s *statsSnapshot) int64 { return s.Collapsed }))
	res.set("serve.admission.shed", d(func(s *statsSnapshot) int64 { return s.Shed }))
	res.set("serve.admission.expired", d(func(s *statsSnapshot) int64 { return s.Expired }))
	if spec.writeFrac > 0 {
		muts := d(func(s *statsSnapshot) int64 { return s.Mutations })
		if muts > 0 {
			res.set("serve.dynamic.invalidated_per_mut", d(func(s *statsSnapshot) int64 { return s.Invalidated })/muts)
		}
		res.set("serve.dynamic.readmitted", d(func(s *statsSnapshot) int64 { return s.Readmitted }))
		res.set("serve.dynamic.dirty_rows_max", float64(dirtyMax))
	}
	if spec.replicas > 1 {
		res.set("serve.replica.forwards", float64(after.forwards-before.forwards))
		res.set("serve.replica.proxied_retries", float64(after.proxiedRetries-before.proxiedRetries))
	}
	r.dominance(&before, &after, sent)
	return nil
}

// recordRung judges one rung against the workload's frozen limit and keeps
// its row for the ladder table.
func (r *serveRun) recordRung(p *phase) {
	v := judgeRung(p, r.spec.p99LimitMs)
	row := rung{RateRPS: p.rate, Sent: p.sent, OK: p.ok, Failed: p.failed, Wrong: p.wrong,
		BacklogMid: p.backlogMid, BacklogEnd: p.backlogEnd}
	row.P50Ms, _ = percentile(p.readMs, 0.50) // a rung too short for a percentile is void below
	row.TailMs, row.Tail = v.tailMs, v.tail
	row.LateMs, _, _ = tailPercentile(p.lateMs)
	switch {
	case v.void:
		row.Verdict = "void: " + v.why
	case v.meets:
		row.Verdict = "meets"
	default:
		row.Verdict = v.why
	}
	r.res.rungs = append(r.res.rungs, row)
}

// dominance asserts the property that justifies the workload, so a change
// of defaults cannot silently turn it into a different one.
func (r *serveRun) dominance(before, after *statsSnapshot, sent int) {
	cold, shed := after.Cold-before.Cold, after.Shed-before.Shed
	invalidated := after.Invalidated - before.Invalidated
	switch {
	case r.spec.replicas > 1:
		if fw := after.forwards - before.forwards; float64(fw) < 0.99*float64(sent) {
			r.res.failf("dominance: replica 0 forwarded %d of %d reads, need 99%%", fw, sent)
		}
	case r.spec.writeFrac > 0:
		if cold == 0 || invalidated == 0 {
			r.res.failf("dominance: Cold=%d Invalidated=%d, both must be above 0 with writes beside reads", cold, invalidated)
		}
	default:
		if cold != 0 || shed != 0 {
			r.res.failf("dominance: Cold=%d Shed=%d, both must be 0 on read-only warm traffic", cold, shed)
		}
	}
}

// appliedBatch is one POST /update the server acknowledged.
type appliedBatch struct {
	version uint64
	batch   int
}

// httpTarget sends requests to one aglserve over one connection per worker
// and checks every answer.
type httpTarget struct {
	clients []*wireClient
	mu      sync.Mutex
	applied []appliedBatch
	problem string // the first failed or wrong operation, for the report
}

func newHTTPTarget(addr string, workers int) *httpTarget {
	t := &httpTarget{clients: make([]*wireClient, workers)}
	for i := range t.clients {
		t.clients[i] = newWireClient(addr)
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.close()
	}
}

func (t *httpTarget) note(out outcome, format string, args ...any) outcome {
	t.mu.Lock()
	if t.problem == "" {
		t.problem = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
	return out
}

func (t *httpTarget) firstProblem() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.problem
}

// do sends r. A transport error, a timeout and a non-200 are failures; a
// 200 whose body is not the expected answer is wrong.
func (t *httpTarget) do(w int, r *request) outcome {
	status, body, err := t.clients[w].do(r.wire)
	if err != nil {
		return t.note(outcomeFailed, "%v", err)
	}
	if status != 200 {
		return t.note(outcomeFailed, "status %d: %s", status, bytes.TrimSpace(body))
	}
	if r.kind == kindUpdate {
		var reply struct {
			Version uint64            `json:"version"`
			Applied int               `json:"applied"`
			Errors  map[string]string `json:"errors"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return t.note(outcomeWrong, "update reply %q: %v", body, err)
		}
		if reply.Applied != r.muts || len(reply.Errors) > 0 {
			return t.note(outcomeFailed, "update applied %d of %d: %v", reply.Applied, r.muts, reply.Errors)
		}
		t.mu.Lock()
		t.applied = append(t.applied, appliedBatch{reply.Version, r.batch})
		t.mu.Unlock()
		return outcomeOK
	}
	if r.want != nil {
		if !sameAnswer(body, r.want) {
			return t.note(outcomeWrong, "got %q want %q", bytes.TrimSpace(body), bytes.TrimSpace(r.want))
		}
	} else if len(body) == 0 || body[0] != '{' {
		return t.note(outcomeWrong, "read answered %q", body)
	}
	return outcomeOK
}

// audit is the post-run correctness check. Read-only workloads were checked
// answer by answer; here a routed workload also shows that routed and
// unrouted bodies are byte-identical, and a mixed workload replays its
// acknowledged batches into the reference in version order and compares
// auditNodes scores within 1e-9.
func (r *serveRun) audit() error {
	rng := rand.New(rand.NewSource(r.env.seed + 1))
	c := newWireClient(r.servers[0].addr)
	defer c.close()
	switch {
	case r.spec.replicas > 1:
		owner := newWireClient(r.servers[1].addr)
		defer owner.close()
		mismatched := 0
		for n := 0; n < auditNodes; n++ {
			req := r.traffic.pool[rng.Intn(len(r.traffic.pool))].wire
			s0, routed, err := c.do(req)
			if err != nil {
				return err
			}
			routed = append([]byte(nil), routed...)
			s1, direct, err := owner.do(req)
			if err != nil {
				return err
			}
			if s0 != 200 || s1 != 200 || !bytes.Equal(routed, direct) {
				mismatched++
			}
		}
		r.res.attempted += auditNodes
		r.res.wrong += int64(mismatched)
		if mismatched > 0 {
			r.res.failf("%d of %d routed answers differ from the owner's own", mismatched, auditNodes)
		}
	case r.spec.writeFrac > 0:
		return r.auditMixed(rng, c)
	}
	return nil
}

func (r *serveRun) auditMixed(rng *rand.Rand, c *wireClient) error {
	ctx := context.Background()
	applied := r.target.applied
	sort.Slice(applied, func(a, b int) bool { return applied[a].version < applied[b].version })
	touched := make(map[int64]bool)
	for i, ab := range applied {
		if ab.version != uint64(i+1) {
			r.res.failf("acknowledged versions are not 1..%d: position %d holds version %d", len(applied), i, ab.version)
			return nil
		}
		muts := r.writes[ab.batch].muts
		got, err := r.ref.Apply(ctx, muts)
		if err != nil {
			return err
		}
		if got.Applied != len(muts) {
			r.res.failf("reference applied %d of %d mutations of batch %d", got.Applied, len(muts), ab.batch)
			return nil
		}
		for _, m := range muts {
			if m.Op == graph.OpUpdateNodeFeat {
				touched[m.ID] = true
			} else {
				touched[m.Dst] = true
			}
		}
	}
	var st serve.Stats
	if err := r.servers[0].getJSON("/stats", &st); err != nil {
		return err
	}
	if st.Version != uint64(len(applied)) {
		r.res.failf("server is at version %d, %d batches were acknowledged", st.Version, len(applied))
	}
	// Half the audited nodes sit on a mutation, half anywhere.
	ids := slices.Sorted(maps.Keys(touched))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	if len(ids) > auditNodes/2 {
		ids = ids[:auditNodes/2]
	}
	all := r.g.SortedIDs()
	for len(ids) < auditNodes {
		ids = append(ids, all[rng.Intn(len(all))])
	}
	mismatched := 0
	var worst float64
	for _, id := range ids {
		status, body, err := c.do(getRequest("/score?node=" + strconv.FormatInt(id, 10)))
		if err != nil {
			return err
		}
		var reply struct {
			Scores []float64 `json:"scores"`
		}
		want, err := r.ref.Score(ctx, id)
		if err != nil {
			return err
		}
		if status != 200 || json.Unmarshal(body, &reply) != nil || len(reply.Scores) != len(want) {
			mismatched++
			continue
		}
		for k := range want {
			diff := math.Abs(reply.Scores[k] - want[k])
			worst = math.Max(worst, diff)
			if diff > 1e-9 {
				mismatched++
				break
			}
		}
	}
	r.res.attempted += int64(len(ids))
	r.res.wrong += int64(mismatched)
	r.res.notef("audit: %d batches replayed in version order, %d nodes compared, largest difference %.3g", len(applied), len(ids), worst)
	if mismatched > 0 {
		r.res.failf("%d of %d audited scores differ from the reference by more than 1e-9", mismatched, len(ids))
	}
	return nil
}
