package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"agl/internal/core"
	"agl/internal/datagen"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/placement"
	"agl/internal/rpcx"
)

// testClusterSlots keeps migration granular but tables tiny in tests.
const testClusterSlots = 64

// cluster is the in-process test fixture: n replicas over one dataset,
// each holding the full graph and a model clone but only its owned shard
// of the embedding store, plus a single-process reference server over the
// full store for bit-exactness checks.
type cluster struct {
	reps []*Replica
	ref  *Server
	g    *graph.Graph
}

func buildCluster(t testing.TB, n int) *cluster {
	t.Helper()
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 250, FeatDim: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: ds.G.FeatureDim(), Hidden: 8, Classes: 1,
		Layers: 2, Act: nn.ActTanh, Seed: 21, EdgeHead: gnn.EdgeHeadBilinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Infer(core.InferConfig{Seed: 4, TempDir: t.TempDir(), KeepEmbeddings: true},
		model, mapreduce.MemInput(core.TableRecords(ds.G)))
	if err != nil {
		t.Fatal(err)
	}
	blob := mustMarshal(t, model)

	refModel, err := gnn.UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	refStore, err := NewStore(0, res.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Seed: 4}, refModel, ds.G, refStore)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })

	// Bind every replica's RPC port first (the table needs all addresses),
	// then seed the even table and join.
	reps := make([]*Replica, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		m, err := gnn.UnmarshalModel(blob)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Seed: 4}, m, ds.G, nil) // store set below via table
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		r, err := NewReplica(i, srv, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		reps[i] = r
		addrs[i] = r.Addr()
	}
	table, err := placement.Even(addrs, testClusterSlots)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if err := r.Join(table); err != nil {
			t.Fatal(err)
		}
		// Partition the warm tier: install only owned rows (the fixture's
		// servers were built storeless, so the warm shard arrives through
		// the same InstallRows path a migration uses).
		owned := make(map[int64][]float64)
		for id, emb := range res.Embeddings {
			if table.Owns(i, id) {
				owned[id] = emb
			}
		}
		r.Server().InstallRows(floatRows(owned))
	}
	return &cluster{reps: reps, ref: ref, g: ds.G}
}

func scoresEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterRoutedScoreMatchesSingle: any replica answers any node with
// the exact scores the single-process server serves, whether the id is
// owned locally or routed to a peer.
func TestClusterRoutedScoreMatchesSingle(t *testing.T) {
	cl := buildCluster(t, 3)
	ctx := context.Background()
	for _, node := range cl.g.Nodes[:60] {
		want, err := cl.ref.Score(ctx, node.ID)
		if err != nil {
			t.Fatal(err)
		}
		for ri, r := range cl.reps {
			got, err := r.Score(ctx, node.ID)
			if err != nil {
				t.Fatalf("replica %d score(%d): %v", ri, node.ID, err)
			}
			if !scoresEqual(got, want) {
				t.Fatalf("replica %d score(%d) = %v, want %v", ri, node.ID, got, want)
			}
		}
	}
	// Forwarding must actually have happened (3 replicas, 60 ids — the
	// odds of every id being local to every router are nil, but check the
	// counter, not the odds).
	var forwards int64
	for _, r := range cl.reps {
		forwards += r.ClusterStats().Forwards
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded — routing never exercised")
	}
}

// TestClusterLinkScatterGather: cross-shard pairs score identically to the
// single-process warm pair path.
func TestClusterLinkScatterGather(t *testing.T) {
	cl := buildCluster(t, 3)
	ctx := context.Background()
	table := cl.reps[0].Table()

	crossPairs := 0
	for i := 0; i+1 < len(cl.g.Nodes) && crossPairs < 40; i += 2 {
		u, v := cl.g.Nodes[i].ID, cl.g.Nodes[i+1].ID
		if table.OwnerOf(u) != table.OwnerOf(v) {
			crossPairs++
		}
		want, err := cl.ref.ScoreLink(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		for ri, r := range cl.reps {
			got, err := r.ScoreLink(ctx, u, v)
			if err != nil {
				t.Fatalf("replica %d link(%d,%d): %v", ri, u, v, err)
			}
			if got != want {
				t.Fatalf("replica %d link(%d,%d) = %v, want %v", ri, u, v, got, want)
			}
		}
	}
	if crossPairs == 0 {
		t.Fatal("no cross-shard pair tested")
	}
}

// TestClusterApplyForwardsAndInvalidatesEverywhere: a mutation submitted
// to a NON-owning replica forwards to the owner, fans out, and afterwards
// every replica serves scores equal to a cold recompute on the mutated
// graph — the incremental-consistency property, cluster-wide.
func TestClusterApplyForwardsAndInvalidatesEverywhere(t *testing.T) {
	cl := buildCluster(t, 3)
	ctx := context.Background()

	u, v := cl.g.Nodes[3].ID, cl.g.Nodes[11].ID
	muts := []graph.Mutation{{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 2.5}}

	// Submit via a replica that does NOT own the batch's primary node.
	owner := cl.reps[0].Table().OwnerOf(v)
	router := cl.reps[(owner+1)%len(cl.reps)]
	res, err := router.Apply(ctx, muts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d, want 1", res.Applied)
	}
	if router.ClusterStats().Forwards == 0 {
		t.Fatal("apply was not forwarded")
	}

	// Reference: same mutation on the single-process server.
	if _, err := cl.ref.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}

	for _, node := range []int64{v, u, cl.g.Nodes[20].ID} {
		want, err := cl.ref.Score(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		for ri, r := range cl.reps {
			got, err := r.Score(ctx, node)
			if err != nil {
				t.Fatalf("replica %d score(%d): %v", ri, node, err)
			}
			if !scoresEqual(got, want) {
				t.Fatalf("replica %d post-apply score(%d) = %v, want %v", ri, node, got, want)
			}
		}
	}

	// Every replica's graph converged to the same version of the edit.
	for ri, r := range cl.reps {
		g, _ := r.Server().Graph()
		if w, ok := edgeWeight(g, u, v); !ok || w != 2.5 {
			t.Fatalf("replica %d edge (%d,%d) weight = %v (present=%v), want 2.5", ri, u, v, w, ok)
		}
	}
}

func edgeWeight(g *graph.Graph, src, dst int64) (float64, bool) {
	for _, e := range g.EdgeTable() {
		if e.Src == src && e.Dst == dst {
			return e.Weight, true
		}
	}
	return 0, false
}

// TestMigrationLiveBitExact: migrate a slot while traffic flows; every
// answer during and after the move must be bit-identical to the reference
// server, and the warm rows must actually move.
func TestMigrationLiveBitExact(t *testing.T) {
	cl := buildCluster(t, 3)
	ctx := context.Background()
	table := cl.reps[0].Table()

	// Pick a slot owned by replica 0 with at least one node in it.
	slot := -1
	var probe int64
	for _, n := range cl.g.Nodes {
		s := placement.SlotOf(n.ID, testClusterSlots)
		if table.Owner(s) == 0 {
			slot, probe = s, n.ID
			break
		}
	}
	if slot < 0 {
		t.Fatal("no slot owned by replica 0 contains a node")
	}
	want, err := cl.ref.Score(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic: every replica scores the probe node continuously.
	stop := make(chan struct{})
	var wrong, served atomic64
	var wg sync.WaitGroup
	for _, r := range cl.reps {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := r.Score(ctx, probe)
				if err == nil {
					served.add(1)
					if !scoresEqual(got, want) {
						wrong.add(1)
					}
				} // unavailability is bounded, not forbidden
				time.Sleep(200 * time.Microsecond)
			}
		}(r)
	}

	res, err := cl.reps[0].Migrate(ctx, slot, 2)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsMoved == 0 {
		t.Fatal("migration moved no rows")
	}
	if served.load() == 0 {
		t.Fatal("no traffic served during migration")
	}
	if w := wrong.load(); w != 0 {
		t.Fatalf("%d wrong answers during live migration", w)
	}

	// The new table owns the slot at the destination, epoch bumped.
	for ri, r := range cl.reps {
		nt := r.Table()
		if nt.Epoch != table.Epoch+1 {
			t.Fatalf("replica %d epoch %d, want %d", ri, nt.Epoch, table.Epoch+1)
		}
		if nt.Owner(slot) != 2 {
			t.Fatalf("replica %d still routes slot %d to %d", ri, slot, nt.Owner(slot))
		}
	}
	// Destination serves the probe warm; source dropped its copy.
	if !warmRow(cl.reps[2].Server(), probe) {
		t.Fatal("destination did not install the migrated row")
	}
	if warmRow(cl.reps[0].Server(), probe) {
		t.Fatal("source kept a warm copy after migration")
	}
	// Scores still exact after the move, from every router.
	for ri, r := range cl.reps {
		got, err := r.Score(ctx, probe)
		if err != nil {
			t.Fatalf("replica %d post-migration: %v", ri, err)
		}
		if !scoresEqual(got, want) {
			t.Fatalf("replica %d post-migration score = %v, want %v", ri, got, want)
		}
	}
}

// atomic64 is a tiny counter helper (avoids importing sync/atomic twice
// under test-local names).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestMigrationConcurrentApplyNeverLosesOrDoubleApplies: AddEdge on an
// existing pair SUMS weights, so a lost mutation shows as a low total and
// a double-applied one as a high total. Hammer one edge with concurrent
// unit-weight adds while slots migrate; afterwards every replica's graph
// must carry exactly initial + number-of-successful-applies.
func TestMigrationConcurrentApplyNeverLosesOrDoubleApplies(t *testing.T) {
	cl := buildCluster(t, 3)
	ctx := context.Background()
	u, v := cl.g.Nodes[5].ID, cl.g.Nodes[9].ID

	base, hadEdge := edgeWeight(cl.g, u, v)
	if !hadEdge {
		// Seed the edge so every later add merges by summing.
		if _, err := cl.reps[0].Apply(ctx, []graph.Mutation{
			{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
		base = 1
	}

	var applies int64
	var amu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			router := cl.reps[w%len(cl.reps)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := router.Apply(ctx, []graph.Mutation{
					{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 1}})
				if err == nil && res.Applied == 1 {
					amu.Lock()
					applies++
					amu.Unlock()
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Migrate several slots around while the writes hammer.
	for s := 0; s < 3; s++ {
		owner := cl.reps[0].Table().Owner(s)
		dst := (owner + 1) % len(cl.reps)
		if _, err := cl.reps[owner].Migrate(ctx, s, dst); err != nil {
			t.Fatalf("migrate slot %d: %v", s, err)
		}
	}
	close(stop)
	wg.Wait()

	want := base + float64(applies)
	for ri, r := range cl.reps {
		g, _ := r.Server().Graph()
		got, ok := edgeWeight(g, u, v)
		if !ok {
			t.Fatalf("replica %d lost the edge entirely", ri)
		}
		if got != want {
			t.Fatalf("replica %d edge weight %v, want %v (base %v + %d applies) — lost or double-applied",
				ri, got, want, base, applies)
		}
	}
	if applies == 0 {
		t.Fatal("no apply succeeded — detector never armed")
	}
}

// TestStaleEpochRejectedTyped: a request stamped with the wrong epoch is
// rejected with a retryable *placement.EpochError that survives the RPC
// boundary.
func TestStaleEpochRejectedTyped(t *testing.T) {
	cl := buildCluster(t, 2)
	c := rpcx.NewClient(cl.reps[1].Addr())
	defer c.Close()

	var reply ScoreReply
	err := c.Call(context.Background(), "Replica.Score",
		&ScoreArgs{Epoch: 999, Nodes: []int64{cl.g.Nodes[0].ID}}, &reply)
	if err == nil {
		t.Fatal("stale-epoch request accepted")
	}
	typed := errFromWire(err)
	var ee *placement.EpochError
	if !errors.As(typed, &ee) {
		t.Fatalf("decoded error %T %v, want *placement.EpochError", typed, typed)
	}
	if !errors.Is(typed, placement.ErrStaleEpoch) {
		t.Fatal("decoded error does not unwrap to ErrStaleEpoch")
	}
	if !ee.Retryable() || ee.Got != 999 || ee.Have != cl.reps[1].Table().Epoch {
		t.Fatalf("epoch error fields wrong: %+v", ee)
	}
}

// TestTypedErrorsCrossTheWire: sentinel serve errors keep their types
// through a forwarded request, so HTTP status mapping works cluster-wide.
func TestTypedErrorsCrossTheWire(t *testing.T) {
	cl := buildCluster(t, 2)
	ctx := context.Background()

	// An id owned by the peer and absent everywhere → ErrUnknownNode must
	// survive forwarding.
	table := cl.reps[0].Table()
	missing := int64(10_000_000)
	for table.OwnerOf(missing) != 1 {
		missing++
	}
	_, err := cl.reps[0].Score(ctx, missing)
	if err == nil || !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("forwarded unknown-node error = %v, want ErrUnknownNode", err)
	}

	// A deadline that cannot be met comes back as DeadlineExceeded.
	dctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	_, err = cl.reps[0].Score(dctx, missing)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error = %v, want DeadlineExceeded", err)
	}
}

// TestFreezeBlocksWritesNotReads: during a freeze, reads flow and writes
// park; the TTL watchdog thaws a replica whose coordinator vanished.
func TestFreezeBlocksWritesNotReads(t *testing.T) {
	cl := buildCluster(t, 2)
	ctx := context.Background()
	r := cl.reps[0]
	r.SetFreezeTTL(250 * time.Millisecond)
	r.frz.freeze(250 * time.Millisecond)

	// Reads still serve.
	if _, err := r.Score(ctx, cl.g.Nodes[0].ID); err != nil {
		t.Fatalf("read blocked by freeze: %v", err)
	}

	// A write parks, then completes once the watchdog thaws. Route to
	// self: pick a mutation primary owned by replica 0.
	start := time.Now()
	table := r.Table()
	u, v := cl.g.Nodes[2].ID, cl.g.Nodes[4].ID
	for _, n := range cl.g.Nodes {
		if table.OwnerOf(n.ID) == 0 {
			v = n.ID
			break
		}
	}
	if _, err := r.Apply(ctx, []graph.Mutation{{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("write did not park during freeze (returned in %v)", el)
	}

	// A frozen write honors its context deadline.
	r.frz.freeze(250 * time.Millisecond)
	dctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	_, err := r.Apply(dctx, []graph.Mutation{{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("frozen write with deadline = %v, want DeadlineExceeded", err)
	}
	r.frz.unfreeze()
}

// TestClusterStatsLiveDuringFanout: an owner-side Apply holds the authority
// lock for its whole fan-out, here to a peer 500 ms away; ClusterStats (so
// GET /cluster and the flight recorder) must not wait behind it.
func TestClusterStatsLiveDuringFanout(t *testing.T) {
	cl := buildCluster(t, 2)
	r := cl.reps[0]
	table := r.Table()
	ch := rpcx.NewChaos(1)
	ch.Set(table.Replicas[1], rpcx.ChaosPolicy{Delay: 500 * time.Millisecond})
	r.SetChaos(ch)
	defer r.SetChaos(nil)

	u, v := cl.g.Nodes[2].ID, int64(-1)
	for _, n := range cl.g.Nodes {
		if table.OwnerOf(n.ID) == 0 {
			v = n.ID
			break
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Apply(context.Background(), []graph.Mutation{{Op: graph.OpAddEdge, Src: u, Dst: v, Weight: 1}})
		done <- err
	}()
	// AuthSeq turns 1 under the authority lock, just before the fan-out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		start := time.Now()
		cs := r.ClusterStats()
		if el := time.Since(start); el > 50*time.Millisecond {
			t.Fatalf("ClusterStats took %v while an apply fanned out", el)
		}
		if cs.AuthSeq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("apply never reached its fan-out")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("apply returned (err %v) before its slow fan-out could finish", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReplicaMisc covers the small contract edges: Join validation, stats
// fields, and double Close.
func TestReplicaMisc(t *testing.T) {
	cl := buildCluster(t, 2)
	r := cl.reps[0]

	// Join with a table that lists someone else at our index.
	bad, err := placement.Even([]string{"127.0.0.1:1", "127.0.0.1:2"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Join(bad); err == nil {
		t.Fatal("Join accepted a table with a foreign address at our index")
	}

	cs := r.ClusterStats()
	if cs.ReplicaID != 0 || cs.Epoch == 0 || cs.OwnedSlots == 0 {
		t.Fatalf("implausible cluster stats: %+v", cs)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateValidation rejects nonsense moves up front.
func TestMigrateValidation(t *testing.T) {
	cl := buildCluster(t, 2)
	ctx := context.Background()
	r := cl.reps[0]
	if _, err := r.Migrate(ctx, -1, 1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := r.Migrate(ctx, testClusterSlots, 1); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	slot0 := r.Table().SlotsOf(0)[0]
	if _, err := r.Migrate(ctx, slot0, 0); err == nil {
		t.Fatal("self-migration accepted")
	}
	if _, err := r.Migrate(ctx, slot0, 99); err == nil {
		t.Fatal("unknown destination accepted")
	}
	slot1 := r.Table().SlotsOf(1)[0]
	if _, err := r.Migrate(ctx, slot1, 0); err == nil {
		t.Fatal("migrating a non-owned slot accepted")
	}
}
