package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/sampling"
	"agl/internal/tensor"
	"agl/internal/wire"
)

// ErrClosed is returned by Score once the server has shut down.
var ErrClosed = errors.New("serve: server closed")

// ErrExpired marks a request dropped from a micro-batch because its
// deadline could not be met — the forward pass never ran for it.
// errors.Is(err, context.DeadlineExceeded) holds.
var ErrExpired = fmt.Errorf("serve: request expired before compute: %w", context.DeadlineExceeded)

// ErrUnknownNode marks a request for a node absent from both the store
// and the graph (a client error, unlike internal scoring failures).
var ErrUnknownNode = core.ErrNodeNotFound

// ErrNoEdgeHead marks a link request against a model trained without a
// pairwise head (ModelConfig.EdgeHead unset) — a client error.
var ErrNoEdgeHead = errors.New("serve: model has no edge head (not a link model)")

// Config parameterizes a Server.
type Config struct {
	// Hops, MaxNeighbors, Strategy and Seed mean what they mean in
	// FlatConfig, for the cold path's request-time neighborhood extraction.
	// Given the values of the training run and of the GraphInfer run that
	// built the store, a cold extraction keeps exactly the in-edges those
	// kept for every node and vectorizes them through the same batch
	// builder, so warm and cold scores of a node are equal (==) under
	// sampling too — for GCN when the two degree sums are exact, as with
	// integer weights. Hops defaults to the model's layer count.
	Hops         int
	MaxNeighbors int
	Strategy     sampling.Strategy
	Seed         int64

	// CacheSize bounds the LRU score cache in entries (0 selects 4096).
	CacheSize int
	// MaxBatch caps how many pending requests one forward pass serves
	// (0 selects 64).
	MaxBatch int
	// MaxWait is an optional micro-batching linger: after the first queued
	// request the batcher waits up to this long for companions before
	// flushing, trading latency for batch size. 0 (the default) flushes
	// greedily as soon as the queue is momentarily empty — concurrent
	// traffic still coalesces because requests queue up while the previous
	// batch computes. A nonzero linger must be at least 1ms: Go timers fire
	// about 1ms late, so a shorter one waits ~1ms all the same.
	MaxWait time.Duration

	// ShedThreshold caps cold-path requests in flight (admitted but not
	// yet completed); beyond it new cold requests are rejected immediately
	// with a ShedError instead of queueing into latency they cannot
	// survive. It is also the capacity of the batcher's queue, so an
	// admitted request never blocks on the send. 0 selects 4*MaxBatch.
	// Warm, cache-hit, and single-flight collapsed requests are never
	// subject to admission.
	ShedThreshold int

	// FlightPath, when non-empty, mirrors the always-on metrics ring
	// (flightSlots samples) to a fixed-size binary flight-recorder file
	// (see ring.go for the format), readable post-hoc with cmd/aglmetrics
	// or ReadFlightFile.
	FlightPath string
	// FlightInterval is the sampling period (0 selects 1s; < 0 disables
	// the recorder entirely).
	FlightInterval time.Duration
}

// flightSlots is the flight ring's capacity in samples: one hour at the
// default interval.
const flightSlots = 3600

// Validate rejects nonsensical serving parameters. Failures are
// *core.ValidationError with the public field name ("ServeConfig.Hops").
func (c Config) Validate() error {
	if c.Hops < 0 {
		return core.Invalidf("ServeConfig.Hops", "must be >= 1 (0 selects the model depth), got %d", c.Hops)
	}
	if c.MaxNeighbors < 0 {
		return core.Invalidf("ServeConfig.MaxNeighbors", "must be >= 0 (0 disables sampling), got %d", c.MaxNeighbors)
	}
	if c.CacheSize < 0 {
		return core.Invalidf("ServeConfig.CacheSize", "must be >= 0 (0 selects the default), got %d", c.CacheSize)
	}
	if c.MaxBatch < 0 {
		return core.Invalidf("ServeConfig.MaxBatch", "must be >= 0 (0 selects the default), got %d", c.MaxBatch)
	}
	if c.MaxWait < 0 {
		return core.Invalidf("ServeConfig.MaxWait", "must be >= 0 (0 selects the default), got %v", c.MaxWait)
	}
	if c.MaxWait > 0 && c.MaxWait < time.Millisecond {
		return core.Invalidf("ServeConfig.MaxWait",
			"must be 0 (flush greedily) or >= 1ms: Go timers fire about 1ms late, so a shorter linger waits ~1ms anyway, got %v", c.MaxWait)
	}
	if c.ShedThreshold < 0 {
		return core.Invalidf("ServeConfig.ShedThreshold", "must be >= 0 (0 selects 4*MaxBatch), got %d", c.ShedThreshold)
	}
	return nil
}

func (c Config) withDefaults(modelLayers int) Config {
	if c.Hops == 0 {
		c.Hops = modelLayers
	}
	if c.Strategy == nil {
		c.Strategy = sampling.Uniform{}
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.ShedThreshold == 0 {
		c.ShedThreshold = 4 * c.MaxBatch
	}
	if c.FlightInterval == 0 {
		c.FlightInterval = time.Second
	}
	return c
}

// Stats is a snapshot of the server's request and mutation accounting.
type Stats struct {
	Requests  int64 // Score calls
	CacheHits int64 // served straight from the LRU
	Collapsed int64 // joined an already-in-flight computation (single-flight)
	Warm      int64 // scored from the embedding store + prediction slice
	Cold      int64 // scored by a full forward pass over a k-hop extraction
	Batches   int64 // micro-batches flushed
	Errors    int64 // requests that failed (unknown node, shutdown, ...)

	Shed        int64 // cold requests rejected by admission control (429 at the edge)
	Expired     int64 // requests dropped from a batch past their deadline
	ColdPending int64 // cold requests admitted but not yet completed (gauge)

	LinkRequests int64 // ScoreLink calls
	LinkWarm     int64 // pairs scored straight off two stored embeddings
	LinkCold     int64 // pairs needing >= 1 request-time endpoint embedding

	Version     uint64 // current graph version (one per applied batch)
	Applies     int64  // mutation batches that applied at least one mutation
	Mutations   int64  // individual mutations applied
	Invalidated int64  // cache entries evicted + warm rows dirtied by mutations
	Readmitted  int64  // dirty rows recomputed cold and re-admitted warm
	DirtyRows   int64  // warm rows (store or overlay-only) currently dirty: the staleness frontier
}

// Server answers per-node score requests on top of the offline pipeline's
// artifacts. Three tiers, fastest first:
//
//  1. an LRU cache over final score vectors;
//  2. a "warm" path for nodes whose layer-K embedding is in the Store:
//     only the model's prediction slice (hierarchical segmentation,
//     paper §3.4) runs;
//  3. a "cold" path for unknown-to-the-store nodes: the request-time
//     LocalFlattener extracts the node's k-hop GraphFeature and a single
//     vectorized forward pass scores the whole micro-batch.
//
// The graph is live: Apply commits mutation batches (edge inserts and
// removals, feature updates, new nodes) onto copy-on-write graph versions,
// and a k-hop walk from the mutated nodes invalidates exactly the cache
// entries and warm rows a batch can have affected — see dynamic.go for
// the consistency model.
//
// Concurrent requests for one node collapse into a single computation
// (single-flight), and all model execution is confined to the batcher
// goroutine — Model instances cache activations and are not safe for
// concurrent use. The Server owns its model; don't share it.
type Server struct {
	cfg   Config
	model *gnn.Model
	head  *gnn.Slice
	store Store

	vg *graph.Versioned // graph versions; mutated only via Apply

	applyMu sync.Mutex // serializes Apply end to end

	mu      sync.Mutex
	closed  bool
	flat    *core.LocalFlattener // extractor for the current version (swapped by Apply)
	version uint64               // version flat/cache/overlay reflect
	cache   *lruCache
	// overlay shadows the read-only base store: a recomputed or installed
	// row serves in place of the store's, and a zero Row marks the id
	// dirty (invalidated by a mutation, no warm row until recomputed).
	// dirtyRows counts the zero rows.
	overlay   map[int64]Row
	dirtyRows int64
	// inflight maps an id to its registered computation. Apply detaches
	// the calls of the ids it invalidates, so a call still registered when
	// it finishes computed a value that holds on the current version.
	inflight map[int64]*call

	// ws is the cold-path workspace: all model execution runs on the
	// batcher goroutine, so one arena serves every cold forward pass and
	// is reset at the end of each micro-batch.
	ws *tensor.Workspace

	reqs chan *call
	stop chan struct{}
	done chan struct{}
	// queued counts calls registered but not yet received by the batcher
	// (or its shutdown drain). It — not the in-flight table, whose entries
	// Apply may detach early — is what guarantees every registered call is
	// eventually resolved.
	queued atomic.Int64

	// adm caps in-flight cold work; warm and cache traffic bypass it.
	adm *admission

	// flight is the always-on metrics ring, fed by the recorder goroutine
	// every cfg.FlightInterval. flightMu guards the per-interval latency
	// histograms (observed from request goroutines and the batcher).
	flight      *FlightRing
	flightStop  chan struct{}
	flightDone  chan struct{}
	flightMu    sync.Mutex
	warmHist    latHist
	coldHist    latHist
	batchMaxWin atomic.Int64 // largest batch this flight interval

	requests, hits, collapsed atomic.Int64
	warm, cold                atomic.Int64
	batches, errors           atomic.Int64
	shed, expired             atomic.Int64
	applies, mutations        atomic.Int64
	invalidations, readmitted atomic.Int64

	linkRequests, linkWarm, linkCold atomic.Int64

	// clusterStats is the cluster layer's counter source (Replica
	// registers its ClusterStats on Join); the recorder diffs it each
	// interval for the AGLFR002 cluster counters.
	clusterStats atomic.Pointer[func() ClusterStats]
}

// call is one de-duplicated score computation; waiters block on done. Every
// resolved call also carries the node's layer-K embedding (emb), so link
// requests share in-flight computations with node scoring.
type call struct {
	id     int64
	scores []float64
	emb    []float64
	err    error
	done   chan struct{}

	enq      time.Time // registration time, for cold-path latency accounting
	admitted bool      // holds an admission slot (released on resolution)
	// deadline is the latest deadline among all waiters, in UnixNanos
	// (noDeadline when any waiter has none). Single-flight collapse only
	// ever extends it, so a shared computation is dropped from a batch
	// only when no waiter can still use the result.
	deadline atomic.Int64
}

// noDeadline marks a call some waiter will wait on forever.
const noDeadline = math.MaxInt64

func deadlineOf(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return noDeadline
}

// extendDeadline raises the call's deadline to at least d (atomic max).
func (c *call) extendDeadline(d int64) {
	for {
		cur := c.deadline.Load()
		if cur >= d || c.deadline.CompareAndSwap(cur, d) {
			return
		}
	}
}

// New starts a Server for model over g, optionally backed by an embedding
// store built from GraphInfer output (nil serves everything cold). Every
// RowStore works, heap or mmap'd, f64 or int8-quantized — the server never
// writes through the store, so dirty rows from mutations live in a
// resident overlay either way, and rows flow through the tier in their
// native codec (dot-product link scoring over q8 rows never dequantizes).
// The model's prediction slice is segmented out once at startup.
func New(cfg Config, model *gnn.Model, g *graph.Graph, store Store) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, errors.New("serve: nil model")
	}
	if g == nil {
		return nil, errors.New("serve: nil graph")
	}
	if store == nil {
		store = (*RowStore)(nil) // method set is nil-tolerant; empty store
	}
	cfg = cfg.withDefaults(len(model.Layers))
	if store.Len() > 0 && store.Dim() != model.Cfg.Hidden {
		return nil, fmt.Errorf("serve: store dim %d does not match model hidden dim %d",
			store.Dim(), model.Cfg.Hidden)
	}
	slices, err := model.Segment()
	if err != nil {
		return nil, fmt.Errorf("serve: model segmentation: %w", err)
	}
	head := slices[len(slices)-1]
	if !head.IsPrediction() {
		return nil, errors.New("serve: segmentation produced no prediction slice")
	}
	s := &Server{
		cfg:   cfg,
		model: model,
		head:  head,
		store: store,
		vg:    graph.NewVersioned(g),
		flat: core.NewLocalFlattener(core.FlatConfig{
			Hops:         cfg.Hops,
			MaxNeighbors: cfg.MaxNeighbors,
			Strategy:     cfg.Strategy,
			Seed:         cfg.Seed,
		}, g),
		cache:    newLRU(cfg.CacheSize),
		overlay:  make(map[int64]Row),
		inflight: make(map[int64]*call),
		ws:       tensor.NewWorkspace(),
		adm:      newAdmission(cfg.ShedThreshold, cfg.MaxBatch),
		reqs:     make(chan *call, cfg.ShedThreshold),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.FlightInterval > 0 {
		ring, err := NewFlightRing(flightSlots, cfg.FlightPath)
		if err != nil {
			return nil, err
		}
		s.flight = ring
		s.flightStop = make(chan struct{})
		s.flightDone = make(chan struct{})
		go s.recorder()
	}
	go s.batcher()
	return s, nil
}

// Score returns the predicted score vector for one node, computing it at
// most once no matter how many goroutines ask concurrently. The returned
// slice is shared with the score cache and other waiters and must not be
// modified.
//
// ctx carries the request deadline end to end: a cold request whose
// deadline passes while queued is dropped from its micro-batch before the
// forward pass runs (ErrExpired, errors.Is context.DeadlineExceeded), and
// a result is never delivered after the deadline even if the computation
// finished. When the cold path is saturated (Config.ShedThreshold
// requests already in flight), Score fails fast with a *ShedError
// (errors.Is ErrOverloaded) carrying a retry hint, instead of queueing
// work that cannot meet any deadline. Cache hits and warm requests
// complete inline on the caller's goroutine and are never shed.
func (s *Server) Score(ctx context.Context, node int64) ([]float64, error) {
	scores, c, fresh, err := s.scoreStart(ctx, node)
	s.send(c, fresh)
	if c != nil {
		return s.wait(ctx, c)
	}
	return scores, err
}

// scoreStart is the part of Score that never blocks on a forward pass: a
// cache hit or a warm row resolves inline on the caller's goroutine;
// anything else joins the node's in-flight computation or registers a new
// one (startLocked), and the returned call is collected with wait.
func (s *Server) scoreStart(ctx context.Context, node int64) (_ []float64, _ *call, fresh bool, _ error) {
	s.requests.Add(1)
	start := time.Now()
	s.mu.Lock()
	if v, ok := s.cache.get(node); ok && !s.closed {
		s.mu.Unlock()
		s.hits.Add(1)
		return v, nil, false, nil
	}
	row, c, fresh, err := s.startLocked(ctx, node, start)
	ver := s.version
	s.mu.Unlock()
	if c != nil || err != nil {
		return nil, c, fresh, err
	}
	// Warm path, inline: the prediction slice is a pure function of the
	// stored embedding, so it runs on the caller's goroutine and never
	// queues behind cold-path batches — under cold saturation warm latency
	// is untouched by design, not by luck. A CodecF64 row feeds the head as
	// a zero-copy view; a CodecQ8 row dequantizes dim floats here (the only
	// decode on the node warm path).
	scores := core.ScoresFromLogits(gnn.ApplyDense(s.head.Head, row.Floats(nil)))
	s.warm.Add(1)
	s.observeWarm(time.Since(start))
	s.mu.Lock()
	if !s.closed && ver == s.version {
		s.cache.add(node, scores)
	}
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		s.errors.Add(1)
		return nil, nil, false, err
	}
	return scores, nil, false, nil
}

// startLocked is the front door for node and link requests alike, called
// with s.mu held: a warm row is returned to run inline; otherwise the
// request joins node's in-flight computation or, past admission control,
// registers a new one (fresh). Holding s.mu from the lookups through the
// registration means no batch can finish in between and leave a second
// cold call behind for a node it just resolved. A caller handed a fresh
// call owes the batcher a send before it blocks on anything, for the
// batcher holds a batch open while a registered call is on its way.
func (s *Server) startLocked(ctx context.Context, node int64, enq time.Time) (_ Row, _ *call, fresh bool, _ error) {
	if s.closed {
		s.errors.Add(1)
		return Row{}, nil, false, ErrClosed
	}
	if row, ok := s.lookupRowLocked(node); ok {
		return row, nil, false, nil
	}
	if c, ok := s.inflight[node]; ok {
		c.extendDeadline(deadlineOf(ctx))
		s.collapsed.Add(1)
		return Row{}, c, false, nil
	}
	if err := ctx.Err(); err != nil {
		s.errors.Add(1)
		return Row{}, nil, false, err
	}
	if err := s.adm.admit(); err != nil {
		s.shed.Add(1)
		return Row{}, nil, false, err
	}
	c := &call{id: node, done: make(chan struct{}), enq: enq, admitted: true}
	c.deadline.Store(deadlineOf(ctx))
	s.inflight[node] = c
	s.queued.Add(1)
	return Row{}, c, true, nil
}

// send hands a call to the batcher if this caller registered it (fresh).
// A plain blocking send, deliberately NOT select-ing on ctx: other
// requests may already have collapsed onto this call, and abandoning it
// here would fail them all with this caller's cancellation. The send
// cannot wedge — a call registered before close is always consumed by the
// batcher (or by its shutdown drain, which keeps receiving until the
// queued counter empties), and admission bounds in-flight sends to the
// channel capacity — and the caller's own ctx is still honored when it
// waits.
func (s *Server) send(c *call, fresh bool) {
	if fresh {
		s.reqs <- c
	}
}

// ScoreMany scores a set of nodes as one unit of work on the caller's
// goroutine: cache hits and warm rows resolve inline, and the cold ids of
// each window of ShedThreshold ids are all registered, then all sent, then
// waited on, so the batcher folds them into one micro-batch (up to
// MaxBatch) and no bulk holds more calls than admission lets in flight: on
// an idle server a bulk never sheds itself. A repeated id is computed
// once. Scores and errors are positional: one failed node does not discard
// the others' results. Returned score slices are shared, same contract as
// Score. errors.Join the second return value for a single verdict.
func (s *Server) ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error) {
	out := make([][]float64, len(nodes))
	errs := make([]error, len(nodes))
	type waiter struct {
		pos   int
		c     *call
		fresh bool
	}
	var waits []waiter
	window := s.cfg.ShedThreshold
	for lo := 0; lo < len(nodes); lo += window {
		for i := lo; i < min(lo+window, len(nodes)); i++ {
			var w waiter
			if out[i], w.c, w.fresh, errs[i] = s.scoreStart(ctx, nodes[i]); w.c != nil {
				w.pos = i
				waits = append(waits, w)
			}
		}
		for _, w := range waits {
			s.send(w.c, w.fresh)
		}
		for _, w := range waits {
			out[w.pos], errs[w.pos] = s.wait(ctx, w.c)
		}
		waits = waits[:0]
	}
	return out, errs
}

// ScoreLink returns the model's link logit for the (src, dst) pair — the
// online edge-level workload (fraud-pair scoring, recommendation). The warm
// path is two store lookups plus one pairwise-head forward, with no k-hop
// extraction; endpoints missing from the store (new or dirtied by
// mutations) resolve cold through the same micro-batched single-flight
// pipeline as node scoring, then the pair is scored off the fresh
// embeddings. Requires a model built with ModelConfig.EdgeHead.
//
// Each endpoint embedding is individually consistent with some committed
// graph version; under a concurrent Apply the two endpoints may straddle
// versions for that one request — the next request converges, the same
// staleness window as node scoring.
func (s *Server) ScoreLink(ctx context.Context, src, dst int64) (float64, error) {
	s.linkRequests.Add(1)
	if s.model.Edge == nil {
		s.errors.Add(1)
		return 0, ErrNoEdgeHead
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.errors.Add(1)
		return 0, ErrClosed
	}
	hs, okS := s.lookupRowLocked(src)
	hd, okD := s.lookupRowLocked(dst)
	s.mu.Unlock()
	if okS && okD {
		s.linkWarm.Add(1)
		return s.scoreRows(hs, hd), nil
	}
	// Queue every missing endpoint before waiting on either, so the
	// batcher can fold both cold extractions into one micro-batch (and a
	// pair of dirty endpoints costs one forward pass, not two).
	var cs, cd *call
	var err error
	if !okS {
		if hs, cs, err = s.embedStart(ctx, src); err != nil {
			return 0, err
		}
	}
	if !okD {
		if hd, cd, err = s.embedStart(ctx, dst); err != nil {
			return 0, err
		}
	}
	if cs != nil {
		if _, err = s.wait(ctx, cs); err != nil {
			return 0, err
		}
		hs = F64Row(cs.emb)
	}
	if cd != nil {
		if _, err = s.wait(ctx, cd); err != nil {
			return 0, err
		}
		hd = F64Row(cd.emb)
	}
	s.linkCold.Add(1)
	return s.scoreRows(hs, hd), nil
}

// scoreRows runs the pairwise edge head on two rows in whatever codecs
// they arrive in. When both rows are int8-quantized and the head is a
// plain dot product, the score is computed directly on the packed payloads
// (integer accumulate, one final rescale) — the dequantize-free warm path.
// Every other combination decodes to floats first.
func (s *Server) scoreRows(u, v Row) float64 {
	if s.model.Edge.Kind == gnn.EdgeHeadDot && u.Codec() == CodecQ8 && v.Codec() == CodecQ8 {
		return quantDot(u, v)
	}
	return s.model.Edge.ScoreVec(u.Floats(nil), v.Floats(nil))
}

// embedStart resolves one node's layer-K embedding or queues its
// computation: warm hits return the stored row (native codec) immediately;
// otherwise the returned call is registered with the batcher (sharing any
// in-flight Score/ScoreLink computation for the same node, single-flight)
// and the caller collects it with wait (a call that resolves without error
// carries its embedding in emb). A dirty row recomputed this way
// re-admits warm for everyone, same as node scoring. Queueing a fresh
// computation passes admission control: a saturated cold path sheds the
// link request with a *ShedError instead of registering.
func (s *Server) embedStart(ctx context.Context, node int64) (Row, *call, error) {
	s.mu.Lock()
	row, c, fresh, err := s.startLocked(ctx, node, time.Now())
	s.mu.Unlock()
	s.send(c, fresh)
	return row, c, err
}

// Stats snapshots the request and mutation counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	version, dirtyRows := s.version, s.dirtyRows
	s.mu.Unlock()
	return Stats{
		Requests:     s.requests.Load(),
		CacheHits:    s.hits.Load(),
		Collapsed:    s.collapsed.Load(),
		Warm:         s.warm.Load(),
		Cold:         s.cold.Load(),
		Batches:      s.batches.Load(),
		Errors:       s.errors.Load(),
		Shed:         s.shed.Load(),
		Expired:      s.expired.Load(),
		ColdPending:  s.adm.pending.Load(),
		LinkRequests: s.linkRequests.Load(),
		LinkWarm:     s.linkWarm.Load(),
		LinkCold:     s.linkCold.Load(),
		Version:      version,
		Applies:      s.applies.Load(),
		Mutations:    s.mutations.Load(),
		Invalidated:  s.invalidations.Load(),
		Readmitted:   s.readmitted.Load(),
		DirtyRows:    dirtyRows,
	}
}

// Close shuts the batcher down. In-flight requests fail with ErrClosed.
// The flight recorder appends one final sample (so a run's tail is always
// covered) before its file mirror is closed.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	<-s.done
	if s.flight != nil {
		if !already {
			close(s.flightStop)
		}
		<-s.flightDone
	}
	return nil
}

func (s *Server) wait(ctx context.Context, c *call) ([]float64, error) {
	select {
	case <-c.done:
		// Deadline first: a result that arrives past the caller's deadline
		// is strictly never delivered, even when c.done and ctx.Done() race.
		if err := ctx.Err(); err != nil {
			s.errors.Add(1)
			return nil, err
		}
		if c.err != nil {
			s.errors.Add(1)
		}
		return c.scores, c.err
	case <-ctx.Done():
		s.errors.Add(1)
		return nil, ctx.Err()
	}
}

// batcher is the single consumer of the request queue. After the first
// request it greedily drains whatever else is already queued (optionally
// lingering MaxWait for stragglers), then scores the whole batch in one
// go; requests arriving mid-computation form the next batch.
func (s *Server) batcher() {
	defer close(s.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stop:
			s.drain()
			return
		case c := <-s.reqs:
			s.queued.Add(-1)
			batch := []*call{c}
			if s.cfg.MaxWait > 0 {
				timer.Reset(s.cfg.MaxWait)
			linger:
				for len(batch) < s.cfg.MaxBatch {
					select {
					case c2 := <-s.reqs:
						s.queued.Add(-1)
						batch = append(batch, c2)
					case <-timer.C:
						break linger
					case <-s.stop:
						break linger
					}
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			}
			// queued > 0 means a call sits in the queue or its registrant is
			// about to send it (nothing can block it in between), so this
			// receive never waits long, and a bulk's cold ids — all
			// registered before the first is sent — share the batch.
		greedy:
			for len(batch) < s.cfg.MaxBatch && s.queued.Load() > 0 {
				select {
				case c2 := <-s.reqs:
					s.queued.Add(-1)
					batch = append(batch, c2)
				case <-s.stop:
					break greedy
				}
			}
			s.process(batch)
		}
	}
}

// drain resolves every outstanding call at shutdown. Calls registered
// before the closed flag flipped may still be on their way into the
// queue, so it keeps consuming until the queued counter reaches zero.
func (s *Server) drain() {
	for s.queued.Load() > 0 {
		select {
		case c := <-s.reqs:
			s.queued.Add(-1)
			c.err = ErrClosed
			s.finish([]*call{c})
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// lookupRowLocked resolves a node's warm row in its stored codec: the
// overlay shadows the base store, and a zero overlay row (dirty: it must
// recompute on the current graph version) misses. The payload may alias
// store or overlay memory; overlay entries are replaced, never mutated in
// place, so a returned row stays valid after the lock drops. Callers hold
// s.mu.
func (s *Server) lookupRowLocked(id int64) (Row, bool) {
	if row, ok := s.overlay[id]; ok {
		return row, !row.IsZero()
	}
	return s.store.LookupRow(id)
}

// setRowLocked shadows id's base store row with row; a zero row marks id
// dirty. Callers hold s.mu.
func (s *Server) setRowLocked(id int64, row Row) {
	if old, ok := s.overlay[id]; ok && old.IsZero() {
		s.dirtyRows--
	}
	if row.IsZero() {
		s.dirtyRows++
	}
	s.overlay[id] = row
}

// process scores one micro-batch: store-backed nodes through the
// prediction slice, the rest through one merged forward pass. The whole
// batch runs against one graph version (the flattener snapshot taken at
// entry), and finish fences each result by its own call, so a concurrent
// Apply can never be shadowed by a computation on the old version.
func (s *Server) process(batch []*call) {
	s.batches.Add(1)
	s.recordBatch(len(batch))
	var coldCalls []*call
	var warmRows []Row // parallel to the warm prefix handled inline

	s.mu.Lock()
	flat := s.flat
	warmCalls := batch[:0:0]
	for _, c := range batch {
		if row, ok := s.lookupRowLocked(c.id); ok {
			warmCalls = append(warmCalls, c)
			warmRows = append(warmRows, row)
			continue
		}
		coldCalls = append(coldCalls, c)
	}
	s.mu.Unlock()

	// Deadline triage before any compute. A warm entry (a row that turned
	// warm between registration and processing) is dropped if its deadline
	// has already passed; a cold entry is dropped if the deadline will
	// have passed by the time this batch's forward pass can complete
	// (EWMA service-time estimate) — spending the forward pass on it
	// would only delay the batchmates that can still make theirs.
	now := time.Now().UnixNano()
	coldEst := int64(len(coldCalls)) * s.adm.perReqNs.Load()
	keptW, keptE := warmCalls[:0], warmRows[:0]
	for i, c := range warmCalls {
		if c.deadline.Load() < now {
			c.err = ErrExpired
			s.expired.Add(1)
			continue
		}
		keptW = append(keptW, c)
		keptE = append(keptE, warmRows[i])
	}
	warmCalls, warmRows = keptW, keptE
	kept := coldCalls[:0]
	for _, c := range coldCalls {
		if c.deadline.Load() < now+coldEst {
			c.err = ErrExpired
			s.expired.Add(1)
			continue
		}
		kept = append(kept, c)
	}
	coldCalls = kept

	for i, c := range warmCalls {
		// FloatsCopy, not Floats: the row payload is a lookup view into
		// store memory, and c.emb outlives this batch (ScoreLink waiters
		// read it after resolution; for mmap-backed stores the view also
		// dies with Close).
		c.emb = warmRows[i].FloatsCopy()
		c.scores = core.ScoresFromLogits(gnn.ApplyDense(s.head.Head, c.emb))
		s.warm.Add(1)
		s.observeWarm(time.Since(c.enq))
	}

	coldStart := time.Now()
	var coldRecs []*wire.TrainRecord
	kept = coldCalls[:0]
	for _, c := range coldCalls {
		rec, err := flat.GraphFeature(c.id)
		if err != nil {
			c.err = err
			continue
		}
		kept = append(kept, c)
		coldRecs = append(coldRecs, rec)
	}
	coldCalls = kept

	if len(coldRecs) > 0 {
		// The whole cold pass — batch assembly, adjacency normalization,
		// layer activations — runs out of the batcher-owned workspace;
		// scores and the (small) per-target embeddings are copied out
		// before the deferred reset recycles it for the next micro-batch.
		defer s.ws.Reset()
		opt := gnn.RunOptions{Workspace: s.ws}
		b, err := core.AssembleBatchWS(s.ws, coldRecs, s.model.Cfg.Classes, false)
		if err != nil {
			for _, c := range coldCalls {
				c.err = fmt.Errorf("serve: batch assembly: %w", err)
			}
		} else {
			// Forward (rather than Infer) keeps the target rows' layer-K
			// embeddings, which finish re-admits for recomputed dirty rows.
			prep := s.model.Prepare(b.Graph, opt)
			st := s.model.Forward(b.Graph, prep, opt)
			for i, c := range coldCalls {
				c.scores = core.ScoresFromLogits(st.Logits.Row(i))
				c.emb = append([]float64(nil), st.Emb.Row(i)...)
				s.cold.Add(1)
				s.observeCold(time.Since(c.enq))
			}
		}
		s.adm.observe(len(coldRecs), time.Since(coldStart))
	}

	s.finish(batch)
}

// finish resolves a batch of calls, each carrying its result or its error.
// A call still registered in inflight — one no Apply detached since it
// registered, so its result holds on the current graph version — caches
// its scores, and re-admits its id warm when the id is dirty. Every call
// then releases its admission slot and wakes its waiters.
func (s *Server) finish(batch []*call) {
	s.mu.Lock()
	for _, c := range batch {
		if s.inflight[c.id] != c {
			continue
		}
		delete(s.inflight, c.id)
		if c.err != nil {
			continue
		}
		s.cache.add(c.id, c.scores)
		if row, ok := s.overlay[c.id]; ok && row.IsZero() {
			// c.emb is the call's own heap copy; recomputed rows re-admit
			// full-precision even over a quantized base store — the
			// overlay is resident memory either way.
			s.setRowLocked(c.id, F64Row(c.emb))
			s.readmitted.Add(1)
		}
	}
	s.mu.Unlock()
	for _, c := range batch {
		if c.admitted {
			s.adm.release()
		}
		close(c.done)
	}
}

// observeWarm folds one warm-path latency into the current flight interval.
func (s *Server) observeWarm(d time.Duration) {
	if s.flight == nil {
		return
	}
	s.flightMu.Lock()
	s.warmHist.observe(d.Microseconds())
	s.flightMu.Unlock()
}

// observeCold folds one cold-path latency into the current flight interval.
func (s *Server) observeCold(d time.Duration) {
	if s.flight == nil {
		return
	}
	s.flightMu.Lock()
	s.coldHist.observe(d.Microseconds())
	s.flightMu.Unlock()
}

// recordBatch tracks the largest batch drained this flight interval.
func (s *Server) recordBatch(n int) {
	for {
		cur := s.batchMaxWin.Load()
		if int64(n) <= cur || s.batchMaxWin.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// setClusterStats registers the cluster layer's counter source, sampled
// once per flight interval. Single-process servers never call this; the
// AGLFR002 cluster fields then stay zero.
func (s *Server) setClusterStats(fn func() ClusterStats) { s.clusterStats.Store(&fn) }

// recorder is the flight-recorder goroutine: every cfg.FlightInterval it
// appends one sample of counter deltas, gauges, and latency percentiles to
// the ring (and its file mirror, when configured). One final sample is
// taken at shutdown so the tail of a run is always covered.
func (s *Server) recorder() {
	defer close(s.flightDone)
	defer s.flight.Close()
	tick := time.NewTicker(s.cfg.FlightInterval)
	defer tick.Stop()
	// Baseline is server birth (all counters zero), not goroutine start:
	// requests racing the recorder's spin-up must not vanish from the
	// first interval's deltas — sum(samples) always equals the totals.
	var prev Stats
	var prevC ClusterStats
	for {
		select {
		case <-tick.C:
			prev, prevC = s.sample(prev, prevC)
		case <-s.flightStop:
			s.sample(prev, prevC)
			return
		}
	}
}

// sample appends one FlightSample: the difference between the current and
// the previous Stats and ClusterStats snapshots for counters, their current
// value for gauges, plus the interval's latency histograms.
func (s *Server) sample(prev Stats, prevC ClusterStats) (Stats, ClusterStats) {
	cur, curC := s.Stats(), ClusterStats{}
	if fn := s.clusterStats.Load(); fn != nil {
		curC = (*fn)()
	}
	s.flightMu.Lock()
	warm50 := s.warmHist.percentile(0.50)
	warm99 := s.warmHist.percentile(0.99)
	cold50 := s.coldHist.percentile(0.50)
	cold99 := s.coldHist.percentile(0.99)
	s.warmHist.reset()
	s.coldHist.reset()
	s.flightMu.Unlock()
	d := func(now, before int64) uint32 { return clampU32(now - before) }
	s.flight.Append(FlightSample{ // best-effort: a failed file write keeps the in-memory ring going
		UnixNanos:  time.Now().UnixNano(),
		QueueDepth: clampU32(cur.ColdPending),
		BatchMax:   clampU32(s.batchMaxWin.Swap(0)),
		Requests:   d(cur.Requests+cur.LinkRequests, prev.Requests+prev.LinkRequests),
		CacheHits:  d(cur.CacheHits, prev.CacheHits),
		Warm:       d(cur.Warm+cur.LinkWarm, prev.Warm+prev.LinkWarm),
		Cold:       d(cur.Cold+cur.LinkCold, prev.Cold+prev.LinkCold),
		Batches:    d(cur.Batches, prev.Batches),
		Shed:       d(cur.Shed, prev.Shed),
		Expired:    d(cur.Expired, prev.Expired),
		Errors:     d(cur.Errors, prev.Errors),
		WarmP50us:  warm50,
		WarmP99us:  warm99,
		ColdP50us:  cold50,
		ColdP99us:  cold99,
		DirtyRows:  clampU32(cur.DirtyRows),
		Applies:    d(cur.Applies, prev.Applies),

		HeartbeatsMissed: d(curC.HeartbeatsMissed, prevC.HeartbeatsMissed),
		Failovers:        d(curC.Failovers, prevC.Failovers),
		ProxiedRetries:   d(curC.ProxiedRetries, prevC.ProxiedRetries),
		BreakerOpens:     d(curC.BreakerOpens, prevC.BreakerOpens),
	})
	return cur, curC
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// Flight returns the retained flight-recorder samples oldest-first (nil
// when the recorder is disabled via a negative FlightInterval).
func (s *Server) Flight() []FlightSample {
	if s.flight == nil {
		return nil
	}
	return s.flight.Samples()
}

// FlightSpec describes the recorder configuration for /metrics handlers.
type FlightSpec struct {
	Interval time.Duration
	Slots    int
	Path     string
}

// FlightInfo reports the recorder configuration (zero value if disabled).
func (s *Server) FlightInfo() FlightSpec {
	if s.flight == nil {
		return FlightSpec{}
	}
	return FlightSpec{Interval: s.cfg.FlightInterval, Slots: flightSlots, Path: s.cfg.FlightPath}
}

// lruCache is a minimal bounded LRU over score vectors. Callers hold the
// server mutex.
type lruCache struct {
	cap int
	ll  *list.List
	m   map[int64]*list.Element
}

type lruEntry struct {
	id     int64
	scores []float64
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[int64]*list.Element)}
}

func (l *lruCache) get(id int64) ([]float64, bool) {
	if e, ok := l.m[id]; ok {
		l.ll.MoveToFront(e)
		return e.Value.(*lruEntry).scores, true
	}
	return nil, false
}

// remove evicts one entry, reporting whether it was present.
func (l *lruCache) remove(id int64) bool {
	if e, ok := l.m[id]; ok {
		l.ll.Remove(e)
		delete(l.m, id)
		return true
	}
	return false
}

func (l *lruCache) add(id int64, scores []float64) {
	if e, ok := l.m[id]; ok {
		e.Value.(*lruEntry).scores = scores
		l.ll.MoveToFront(e)
		return
	}
	l.m[id] = l.ll.PushFront(&lruEntry{id: id, scores: scores})
	if l.ll.Len() > l.cap {
		last := l.ll.Back()
		l.ll.Remove(last)
		delete(l.m, last.Value.(*lruEntry).id)
	}
}
