// Command aglserve is AGL's online inference service: it loads a trained
// model plus node/edge tables, optionally precomputes (or loads) an
// embedding store via GraphInfer, and answers per-node score requests
// over HTTP.
//
//	aglserve -m model.agl -n nodes.tsv -e edges.tsv -addr :8080
//
// Endpoints:
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
// Cluster mode (see "Running a cluster" in README.md): -peers lists every
// replica's internal RPC address and -replica-id says which one this
// process is. The warm embedding tier is partitioned across replicas by
// node-id hash slot (-slots, default 256); the ids of a request that this
// replica does not own are proxied to their owners, one call per owning
// peer however many ids it names, link scores gather the two endpoint
// embeddings the same way, and /update mutations route to the owning
// replica and fan out invalidations cluster-wide. Three extra endpoints
// exist only in cluster mode:
//
//	GET  /placement              current epoch + slot->replica table
//	GET  /cluster                replica routing/fan-out counters
//	POST /admin/migrate?slot=S&to=R   live-migrate one slot to replica R
//
// A request carrying a placement epoch the replica has moved past fails
// with 409 {"error":{"code":"stale_epoch",...}} — retryable after
// refetching /placement.
//
// With -raft the placement table is additionally replicated through a
// raft log (one vote per replica, majority commit): migrations and
// failovers become committed log entries, a leader-driven failure
// detector watches heartbeat replies, and a replica dead past
// -dead-after has its slots automatically reassigned to survivors. See
// "Failure model" in README.md for exactly what this does and does not
// survive.
//
// Every error response uses one JSON envelope,
// {"error":{"code":"...","message":"..."}}, with stable codes:
// bad_request, not_found, gone, overloaded (429, with Retry-After),
// peer_down (503, with Retry-After: the owning replica is unreachable and
// failover has not landed yet — resend after the hint), deadline_exceeded,
// canceled, unavailable, internal. -deadline bounds
// each request end to end; under cold-path saturation (-shed) requests are
// rejected with 429 instead of queueing. -flight mirrors the always-on
// metrics ring to a fixed-size file readable with aglmetrics.
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
//
// With -precompute (the default) GraphInfer runs once at startup so steady
// traffic is served from the embedding store + prediction slice. The store
// is selected with one flag set:
//
//	-store-backend mem|mmap|quant   rows and residency (default mem)
//	-store-path FILE                open a saved store instead of precomputing
//	-store-save FILE                persist the store
//	-store-verify                   full checksum pass at startup
//
// All three backends are the same store type over the same file format
// (AGLSTOR1): mem holds float64 rows on the heap, mmap serves them
// out-of-core from the mapped file with O(1) startup, and quant serves
// int8-quantized rows (~7-8x smaller) that score links without
// dequantizing under a dot-product edge head. A store file is a cache of
// GraphInfer output: files in a retired format are refused with a message
// saying so, and are regenerated by booting once with -store-save.
//
// SIGINT and SIGTERM both drain in-flight HTTP requests, close the replica
// and release the store before the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/rpcx"
	"agl/internal/sampling"
	"agl/internal/serve"
)

// scoreAPI is the request surface the HTTP handlers route through. In
// single-process mode it is the *serve.Server itself; in cluster mode it
// is the *serve.Replica wrapper, which proxies non-owned nodes to the
// owning replica and fans out mutations cluster-wide.
type scoreAPI interface {
	Score(ctx context.Context, node int64) ([]float64, error)
	ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error)
	ScoreLink(ctx context.Context, src, dst int64) (float64, error)
	Apply(ctx context.Context, muts []graph.Mutation) (*serve.ApplyResult, error)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aglserve: ")

	modelPath := flag.String("m", "model.agl", "trained model file")
	nodePath := flag.String("n", "", "node table TSV")
	edgePath := flag.String("e", "", "edge table TSV")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	strategy := flag.String("s", "uniform", "sampling strategy (match training)")
	maxNeighbors := flag.Int("max-neighbors", 0, "per-node in-edge cap (match training)")
	seed := flag.Int64("seed", 1, "sampling seed (match training)")
	precompute := flag.Bool("precompute", true, "run GraphInfer at startup to build the embedding store")
	storeBackend := flag.String("store-backend", "", "embedding store backend: mem (heap, default), mmap (out-of-core), or quant (int8-quantized)")
	storeFile := flag.String("store-path", "", "open the embedding store from this file instead of precomputing")
	storeSave := flag.String("store-save", "", "persist the embedding store to this file")
	storeVerify := flag.Bool("store-verify", false, "run the store file's full checksum verification at startup")
	cacheSize := flag.Int("cache", 4096, "LRU score-cache entries")
	maxBatch := flag.Int("max-batch", 64, "micro-batch size cap")
	maxWait := flag.Duration("max-wait", 0, "micro-batch linger: wait up to this long for batch companions (0 flushes greedily)")
	queueDepth := flag.Int("queue", 0, "cold-path queue depth (0 selects 4*max-batch)")
	shed := flag.Int("shed", 0, "cold requests in flight before admission control sheds with 429 (0 selects the queue depth)")
	deadline := flag.Duration("deadline", 0, "per-request deadline enforced end to end (0 disables; clients can only shorten it)")
	flightPath := flag.String("flight", "", "mirror the always-on metrics ring to this flight-recorder file (read it with aglmetrics)")
	flightSlots := flag.Int("flight-slots", 0, "flight-recorder ring capacity in samples (0 selects 3600)")
	flightInterval := flag.Duration("flight-interval", 0, "flight-recorder sampling period (0 selects 1s)")
	peers := flag.String("peers", "", "cluster mode: comma-separated internal RPC addresses, one per replica (index = replica id)")
	replicaID := flag.Int("replica-id", 0, "cluster mode: this process's index into -peers")
	slots := flag.Int("slots", placement.DefaultSlots, "cluster mode: hash-slot count (must match across replicas)")
	placementPath := flag.String("placement", "", "cluster mode: load the slot->replica table from this file instead of the even default")
	raftOn := flag.Bool("raft", false, "cluster mode: replicate the placement table through a raft log, with leader-driven failure detection and automatic slot failover")
	raftDir := flag.String("raft-dir", "", "cluster mode: directory for this replica's raft WAL (empty runs without persistence — crash-restart then forgets votes and log)")
	suspectAfter := flag.Duration("suspect-after", 2*time.Second, "cluster mode: heartbeat-reply age at which a peer is counted suspect")
	deadAfter := flag.Duration("dead-after", 5*time.Second, "cluster mode: heartbeat-reply age at which a peer is declared dead and its slots fail over")
	flag.Parse()

	if *nodePath == "" || *edgePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	spec := serve.StoreSpec{
		Backend: *storeBackend, Path: *storeFile,
		Verify: *storeVerify, SavePath: *storeSave,
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	model, err := gnn.Load(mf)
	mf.Close()
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.LoadTables(*nodePath, *edgePath)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := sampling.Parse(*strategy)
	if err != nil {
		log.Fatal(err)
	}

	// Cluster membership resolves before the store is built so the warm
	// tier can be partitioned: each replica keeps only the embeddings it
	// owns under the placement table.
	clusterMode := *peers != ""
	var (
		peerList []string
		table    *placement.Table
	)
	if clusterMode {
		peerList = strings.Split(*peers, ",")
		if *replicaID < 0 || *replicaID >= len(peerList) {
			log.Fatalf("-replica-id %d out of range for %d peers", *replicaID, len(peerList))
		}
		if *placementPath != "" {
			table, err = placement.ReadFile(*placementPath)
		} else {
			table, err = placement.Even(peerList, *slots)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := table.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	var store serve.Store
	if spec.Path != "" || *precompute {
		t0 := time.Now()
		var embs map[int64][]float64
		computed := 0
		if spec.Path == "" {
			res, err := core.Infer(core.InferConfig{
				MaxNeighbors: *maxNeighbors, Strategy: strat, Seed: *seed, KeepEmbeddings: true,
			}, model, mapreduce.MemInput(core.TableRecords(g)))
			if err != nil {
				log.Fatal(err)
			}
			embs = res.Embeddings
			computed = len(embs)
			if clusterMode {
				// Keep only the owned shard: non-owned nodes proxy to their
				// owner, so holding their rows would just triple warm memory.
				owned := make(map[int64][]float64)
				for id, emb := range embs {
					if table.OwnerOf(id) == *replicaID {
						owned[id] = emb
					}
				}
				embs = owned
			}
		}
		st, closeStore, err := spec.Open(embs)
		if err != nil {
			log.Fatal(err)
		}
		defer closeStore()
		store = st
		backend := spec.Backend
		if backend == "" {
			backend = serve.BackendMem
		}
		if spec.Path != "" {
			log.Printf("opened %s store: %d embeddings (dim %d, codec %s) from %s in %s",
				backend, st.Len(), st.Dim(), st.RowCodec(), spec.Path,
				time.Since(t0).Round(time.Microsecond))
		} else {
			log.Printf("precomputed %d embeddings, serving %d (dim %d, codec %s) via the %s backend in %s",
				computed, st.Len(), st.Dim(), st.RowCodec(), backend,
				time.Since(t0).Round(time.Millisecond))
		}
		if spec.SavePath != "" {
			log.Printf("saved the %s embedding store to %s", backend, spec.SavePath)
		}
	}

	srv, err := serve.New(serve.Config{
		MaxNeighbors: *maxNeighbors, Strategy: strat, Seed: *seed,
		CacheSize: *cacheSize, MaxBatch: *maxBatch, MaxWait: *maxWait,
		QueueDepth: *queueDepth, ShedThreshold: *shed,
		FlightPath: *flightPath, FlightSlots: *flightSlots, FlightInterval: *flightInterval,
	}, model, g, store)
	if err != nil {
		log.Fatal(err)
	}

	// In cluster mode every request routes through the Replica: owned nodes
	// serve locally, everything else proxies to the owner over the internal
	// RPC mesh, and link scores scatter-gather the two endpoint embeddings.
	var api scoreAPI = srv
	var rep *serve.Replica
	if clusterMode {
		rep, err = serve.NewReplica(*replicaID, srv, peerList[*replicaID])
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Join(table); err != nil {
			log.Fatal(err)
		}
		api = rep
		log.Printf("cluster replica %d/%d on %s: epoch %d, %d/%d slots owned",
			*replicaID, len(peerList), rep.Addr(), table.Epoch,
			len(table.SlotsOf(*replicaID)), table.Slots())
		if *raftOn {
			if err := rep.EnableConsensus(serve.ConsensusConfig{
				WALDir:       *raftDir,
				SuspectAfter: *suspectAfter,
				DeadAfter:    *deadAfter,
				Logf:         log.Printf,
			}); err != nil {
				log.Fatal(err)
			}
			log.Printf("raft-backed placement on (wal dir %q, suspect after %s, dead after %s)",
				*raftDir, *suspectAfter, *deadAfter)
		}
	}
	if *raftOn && !clusterMode {
		log.Fatal("-raft requires cluster mode (-peers)")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /score", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.URL.Query().Get("node"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad node parameter: %w", err))
			return
		}
		scores, err := api.Score(r.Context(), id)
		if err != nil {
			serveError(w, err)
			return
		}
		writeJSON(w, map[string]any{"node": id, "scores": scores})
	})
	mux.HandleFunc("GET /link", func(w http.ResponseWriter, r *http.Request) {
		src, err := strconv.ParseInt(r.URL.Query().Get("src"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad src parameter: %w", err))
			return
		}
		dst, err := strconv.ParseInt(r.URL.Query().Get("dst"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad dst parameter: %w", err))
			return
		}
		logit, err := api.ScoreLink(r.Context(), src, dst)
		if err != nil {
			serveError(w, err)
			return
		}
		// score is the sigmoid link probability; logit the raw head output.
		writeJSON(w, map[string]any{
			"src": src, "dst": dst,
			"logit": logit, "score": nn.Sigmoid(logit),
		})
	})
	mux.HandleFunc("POST /scores", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Nodes []int64 `json:"nodes"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, "too_large", err)
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad request body: %w", err))
			return
		}
		scores, errs := api.ScoreMany(r.Context(), req.Nodes)
		out := make(map[string][]float64, len(req.Nodes))
		failed := map[string]string{}
		for i, id := range req.Nodes {
			key := strconv.FormatInt(id, 10)
			if errs[i] != nil {
				failed[key] = errs[i].Error()
				continue
			}
			out[key] = scores[i]
		}
		// Partial failures still return the scores that computed; the
		// response is only an error status when nothing succeeded.
		if len(out) == 0 && len(failed) > 0 {
			var first error
			for i := range errs {
				if errs[i] != nil {
					first = errs[i]
					break
				}
			}
			serveError(w, first)
			return
		}
		resp := map[string]any{"scores": out}
		if len(failed) > 0 {
			resp["errors"] = failed
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		muts, decodeErrs, err := decodeMutations(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		res, err := api.Apply(r.Context(), muts)
		if err != nil {
			serveError(w, err)
			return
		}
		failed := map[string]string{}
		var first error
		for i, e := range res.Errs {
			if de := decodeErrs[i]; de != nil {
				e = de // report the parse failure, not the placeholder's rejection
			}
			if e != nil {
				failed[strconv.Itoa(i)] = e.Error()
				if first == nil {
					first = e
				}
			}
		}
		// Partial failures still commit the valid mutations; the response
		// is only an error status when nothing applied (same contract as
		// POST /scores).
		if res.Applied == 0 && len(failed) > 0 {
			serveError(w, first)
			return
		}
		resp := map[string]any{
			"version":     res.Version,
			"applied":     res.Applied,
			"invalidated": res.Invalidated,
		}
		if len(failed) > 0 {
			resp["errors"] = failed
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /mutations", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		if q := r.URL.Query().Get("since"); q != "" {
			v, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad since parameter: %w", err))
				return
			}
			since = v
		}
		entries, ok := srv.MutationsSince(since)
		if !ok {
			writeError(w, http.StatusGone, "gone",
				fmt.Errorf("mutation log trimmed past version %d; resync from a fresh snapshot", since))
			return
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
		switch codec := r.URL.Query().Get("codec"); codec {
		case "", "f64":
		case "q8":
			wireEntries = graph.QuantizeLog(entries)
		default:
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("bad codec parameter %q (want f64 or q8)", codec))
			return
		}
		writeJSON(w, map[string]any{"version": version, "entries": wireEntries})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		last := 60
		if q := r.URL.Query().Get("last"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Errorf("bad last parameter %q", q))
				return
			}
			last = v
		}
		samples := srv.Flight()
		if last > 0 && len(samples) > last {
			samples = samples[len(samples)-last:]
		}
		if samples == nil {
			samples = []serve.FlightSample{}
		}
		spec := srv.FlightInfo()
		writeJSON(w, map[string]any{
			"interval_ms": spec.Interval.Milliseconds(),
			"slots":       spec.Slots,
			"path":        spec.Path,
			"samples":     samples,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if rep != nil {
		mux.HandleFunc("GET /placement", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, rep.Table())
		})
		mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, rep.ClusterStats())
		})
		mux.HandleFunc("POST /admin/migrate", func(w http.ResponseWriter, r *http.Request) {
			slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad slot parameter: %w", err))
				return
			}
			to, err := strconv.Atoi(r.URL.Query().Get("to"))
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad to parameter: %w", err))
				return
			}
			res, err := rep.Migrate(r.Context(), slot, to)
			if err != nil {
				serveError(w, err)
				return
			}
			writeJSON(w, res)
		})
	}

	storeLen := 0
	if store != nil {
		storeLen = store.Len()
	}
	var handler http.Handler = mux
	if *deadline > 0 {
		// The edge deadline propagates through r.Context() into
		// Score/ScoreLink/Apply and on into the micro-batcher, where a
		// request that can no longer make it is dropped before the forward
		// pass (408 deadline_exceeded at this edge).
		d := *deadline
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			mux.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		log.Printf("serving %d nodes on %s (store: %d embeddings)", g.NumNodes(), *addr, storeLen)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if rep != nil {
		rep.Close() // severs the RPC mesh before the local server goes down
	}
	srv.Close()
}

// maxBodyBytes caps a POST body (/scores and /update).
const maxBodyBytes = 64 << 20

// decodeMutations parses a /update body: either one mutation object or
// {"mutations":[...]}. Batch elements decode individually so one
// malformed mutation cannot reject its valid siblings — an unparseable
// element becomes a zero Mutation (which Apply rejects positionally) with
// its parse error recorded at the same index in decodeErrs.
func decodeMutations(r *http.Request) ([]graph.Mutation, []error, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("read request body: %w", err)
	}
	var batch struct {
		Mutations []json.RawMessage `json:"mutations"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(batch.Mutations) > 0 {
		muts := make([]graph.Mutation, len(batch.Mutations))
		decodeErrs := make([]error, len(batch.Mutations))
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
	var single graph.Mutation
	if err := json.Unmarshal(body, &single); err != nil {
		return nil, nil, fmt.Errorf("bad mutation: %w", err)
	}
	return []graph.Mutation{single}, make([]error, 1), nil
}

// errStatus maps a serving-tier error to its HTTP status and stable
// machine-readable code. Codes are part of the API (documented in README):
// clients branch on error.code, never on the message text.
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
	case errors.Is(err, graph.ErrBadMutation), errors.Is(err, graph.ErrDuplicateNode),
		errors.Is(err, serve.ErrNoEdgeHead):
		return http.StatusBadRequest, "bad_request"
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

// serveError writes the envelope for an error coming out of the Server,
// deriving status and code; shed responses carry a Retry-After hint.
func serveError(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	retryAfter := time.Duration(0)
	var shed *serve.ShedError
	if errors.As(err, &shed) {
		retryAfter = shed.RetryAfter
	}
	var down *rpcx.PeerDownError
	if errors.As(err, &down) {
		retryAfter = down.RetryAfter
	}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, status, code, err)
}

// writeError emits the stable JSON error envelope shared by every
// endpoint: {"error":{"code":"...","message":"..."}}.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": err.Error()},
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}
