// Command aglserve is AGL's online inference service: it loads a trained
// model plus node/edge tables, optionally precomputes (or loads) an
// embedding store via GraphInfer, and answers per-node score requests
// over HTTP. The endpoints and the error envelope are documented in
// package agl/internal/httpapi; this command holds flags, wiring and
// signal handling.
//
//	aglserve -m model.agl -n nodes.tsv -e edges.tsv -addr :8080
//
// Cluster mode (see "Running a cluster" in README.md): -peers lists every
// replica's internal RPC address and -replica-id says which one this
// process is. The warm embedding tier is partitioned across replicas by
// node-id hash slot (-slots, default 256); the ids of a request that this
// replica does not own are proxied to their owners, one call per owning
// peer however many ids it names, link scores gather the two endpoint
// embeddings the same way, and /update mutations route to the owning
// replica and fan out invalidations cluster-wide.
//
// With -raft the placement table is additionally replicated through a
// raft log (one vote per replica, majority commit): migrations and
// failovers become committed log entries, a leader-driven failure
// detector watches heartbeat replies, and a replica dead past
// -dead-after has its slots automatically reassigned to survivors. See
// "Failure model" in README.md for exactly what this does and does not
// survive.
//
// -deadline bounds each request end to end; under cold-path saturation
// (-shed) requests are rejected with 429 instead of queueing. -flight
// mirrors the always-on metrics ring to a fixed-size file readable with
// aglmetrics.
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
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"agl/internal/core"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/httpapi"
	"agl/internal/mapreduce"
	"agl/internal/placement"
	"agl/internal/sampling"
	"agl/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aglserve: ")

	var (
		cfg  serve.Config
		spec serve.StoreSpec
		cons = serve.ConsensusConfig{Logf: log.Printf}
	)
	modelPath := flag.String("m", "model.agl", "trained model file")
	nodePath := flag.String("n", "", "node table TSV")
	edgePath := flag.String("e", "", "edge table TSV")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	flag.Func("s", "sampling strategy (match training; default uniform)", func(s string) (err error) {
		cfg.Strategy, err = sampling.Parse(s)
		return err
	})
	flag.IntVar(&cfg.MaxNeighbors, "max-neighbors", 0, "per-node in-edge cap (match training)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "sampling seed (match training)")
	precompute := flag.Bool("precompute", true, "run GraphInfer at startup to build the embedding store")
	flag.StringVar(&spec.Backend, "store-backend", "", "embedding store backend: mem (heap, default), mmap (out-of-core), or quant (int8-quantized)")
	flag.StringVar(&spec.Path, "store-path", "", "open the embedding store from this file instead of precomputing")
	flag.StringVar(&spec.SavePath, "store-save", "", "persist the embedding store to this file")
	flag.BoolVar(&spec.Verify, "store-verify", false, "run the store file's full checksum verification at startup")
	flag.IntVar(&cfg.CacheSize, "cache", 4096, "LRU score-cache entries")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 64, "micro-batch size cap")
	flag.DurationVar(&cfg.MaxWait, "max-wait", 0, "micro-batch linger: wait up to this long for batch companions (0 flushes greedily; else at least 1ms)")
	flag.IntVar(&cfg.ShedThreshold, "shed", 0, "cold requests in flight before admission control sheds with 429 (0 selects 4*max-batch)")
	deadline := flag.Duration("deadline", 0, "per-request deadline enforced end to end (0 disables; clients can only shorten it)")
	flag.StringVar(&cfg.FlightPath, "flight", "", "mirror the always-on metrics ring to this flight-recorder file (read it with aglmetrics)")
	flag.DurationVar(&cfg.FlightInterval, "flight-interval", 0, "flight-recorder sampling period (0 selects 1s)")
	peers := flag.String("peers", "", "cluster mode: comma-separated internal RPC addresses, one per replica (index = replica id)")
	replicaID := flag.Int("replica-id", 0, "cluster mode: this process's index into -peers")
	slots := flag.Int("slots", placement.DefaultSlots, "cluster mode: hash-slot count (must match across replicas)")
	placementPath := flag.String("placement", "", "cluster mode: load the slot->replica table from this file instead of the even default")
	raftOn := flag.Bool("raft", false, "cluster mode: replicate the placement table through a raft log, with leader-driven failure detection and automatic slot failover")
	flag.StringVar(&cons.WALDir, "raft-dir", "", "cluster mode: directory for this replica's raft WAL (empty runs without persistence — crash-restart then forgets votes and log)")
	flag.DurationVar(&cons.SuspectAfter, "suspect-after", 2*time.Second, "cluster mode: heartbeat-reply age at which a peer is counted suspect")
	flag.DurationVar(&cons.DeadAfter, "dead-after", 5*time.Second, "cluster mode: heartbeat-reply age at which a peer is declared dead and its slots fail over")
	flag.Parse()

	if *nodePath == "" || *edgePath == "" {
		flag.Usage()
		os.Exit(2)
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
		if err != nil { // both constructors validate the table
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
				MaxNeighbors: cfg.MaxNeighbors, Strategy: cfg.Strategy, Seed: cfg.Seed, KeepEmbeddings: true,
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

	srv, err := serve.New(cfg, model, g, store)
	if err != nil {
		log.Fatal(err)
	}

	// In cluster mode every request routes through the Replica: owned nodes
	// serve locally, everything else proxies to the owner over the internal
	// RPC mesh, and link scores scatter-gather the two endpoint embeddings.
	var api httpapi.API = srv
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
			if err := rep.EnableConsensus(cons); err != nil {
				log.Fatal(err)
			}
			log.Printf("raft-backed placement on (wal dir %q, suspect after %s, dead after %s)",
				cons.WALDir, cons.SuspectAfter, cons.DeadAfter)
		}
	}
	if *raftOn && !clusterMode {
		log.Fatal("-raft requires cluster mode (-peers)")
	}

	storeLen := 0
	if store != nil {
		storeLen = store.Len()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: httpapi.New(api, srv, rep, *deadline)}
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
