package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"agl/internal/clockx"
	"agl/internal/placement"
)

// fastConsensus is the test timer profile: tight enough that elections
// and failovers resolve in tens of milliseconds, loose enough to be
// stable under -race on a loaded CI box.
func fastConsensus(walDir string, seed int64) ConsensusConfig {
	return ConsensusConfig{
		WALDir:             walDir,
		HeartbeatInterval:  15 * time.Millisecond,
		ElectionTimeoutMin: 75 * time.Millisecond,
		ElectionTimeoutMax: 150 * time.Millisecond,
		SuspectAfter:       100 * time.Millisecond,
		DeadAfter:          300 * time.Millisecond,
		Seed:               seed,
	}
}

// enableConsensus turns raft on for every replica in the fixture.
func enableConsensus(t *testing.T, cl *cluster) {
	t.Helper()
	dir := t.TempDir()
	for i, r := range cl.reps {
		if err := r.EnableConsensus(fastConsensus(dir, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// clusterLeader returns the index of the replica that currently believes
// it leads, or -1.
func clusterLeader(cl *cluster, skip int) int {
	for i, r := range cl.reps {
		if i == skip {
			continue
		}
		if n := r.ConsensusNode(); n != nil && n.IsLeader() {
			return i
		}
	}
	return -1
}

// TestConsensusElectsLeaderAndReplicatesProposals: with raft enabled, a
// leader emerges, and a table proposed from a FOLLOWER (forwarded to the
// leader) commits on every replica.
func TestConsensusElectsLeaderAndReplicatesProposals(t *testing.T) {
	cl := buildCluster(t, 3)
	enableConsensus(t, cl)

	waitFor(t, 5*time.Second, "leader election", func() bool {
		return clusterLeader(cl, -1) >= 0
	})
	lead := clusterLeader(cl, -1)

	// Propose from a follower: move slot 0 to the follower itself.
	follower := (lead + 1) % len(cl.reps)
	cur := cl.reps[follower].Table()
	next, err := cur.WithOwner(0, follower)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := cl.reps[follower].cns.Load()
	if err := c.proposeTable(ctx, next); err != nil {
		t.Fatalf("follower propose: %v", err)
	}

	// Every replica converges to the committed table.
	waitFor(t, 5*time.Second, "table replication", func() bool {
		for _, r := range cl.reps {
			tb := r.Table()
			if tb.Epoch < next.Epoch || tb.Owner(0) != follower {
				return false
			}
		}
		return true
	})

	// Raft state is visible in ClusterStats.
	cs := cl.reps[lead].ClusterStats()
	if !cs.ConsensusOn || cs.RaftTerm == 0 {
		t.Fatalf("ClusterStats missing consensus state: %+v", cs)
	}
}

// TestConsensusFailoverOnReplicaCrash is the heart of the PR: kill one
// replica of three under consensus and, with NO operator action, the
// survivors commit a failover table that reassigns every slot the corpse
// owned; routed reads then answer correctly from the survivors.
func TestConsensusFailoverOnReplicaCrash(t *testing.T) {
	cl := buildCluster(t, 3)
	enableConsensus(t, cl)

	waitFor(t, 5*time.Second, "leader election", func() bool {
		return clusterLeader(cl, -1) >= 0
	})

	// Kill a FOLLOWER first (leader crash is TestConsensusLeaderCrash).
	lead := clusterLeader(cl, -1)
	victim := (lead + 1) % len(cl.reps)
	if err := cl.reps[victim].Close(); err != nil {
		t.Fatal(err)
	}

	// The leader's failure detector commits a failover table: no slot
	// remains owned by the victim on any survivor.
	waitFor(t, 10*time.Second, "failover table", func() bool {
		for i, r := range cl.reps {
			if i == victim {
				continue
			}
			tb := r.Table()
			for s := 0; s < tb.Slots(); s++ {
				if tb.Owner(s) == victim {
					return false
				}
			}
		}
		return true
	})

	// Zero wrong answers: every node scores correctly from a survivor.
	// Slots inherited from the victim lost their warm rows, so those ids
	// recompute cold — identical within the documented 1e-9 tolerance.
	ctx := context.Background()
	caller := cl.reps[(victim+1)%len(cl.reps)]
	for _, n := range cl.g.Nodes[:80] {
		want, err := cl.ref.Score(ctx, n.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := caller.Score(ctx, n.ID)
		if err != nil {
			t.Fatalf("score %d after failover: %v", n.ID, err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("node %d: got %v want %v", n.ID, got, want)
			}
		}
	}

	// The detector's bookkeeping surfaced.
	var failovers, missed int64
	for i, r := range cl.reps {
		if i == victim {
			continue
		}
		cs := r.ClusterStats()
		failovers += cs.Failovers
		missed += cs.HeartbeatsMissed
	}
	if failovers == 0 {
		t.Fatal("no failover counted")
	}
	if missed == 0 {
		t.Fatal("no missed heartbeats counted")
	}
}

// TestConsensusLeaderCrash: killing the raft LEADER forces an election
// AND a failover; the new leader commits the reassignment.
func TestConsensusLeaderCrash(t *testing.T) {
	cl := buildCluster(t, 3)
	enableConsensus(t, cl)

	waitFor(t, 5*time.Second, "leader election", func() bool {
		return clusterLeader(cl, -1) >= 0
	})
	victim := clusterLeader(cl, -1)
	if err := cl.reps[victim].Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, "new leader", func() bool {
		return clusterLeader(cl, victim) >= 0
	})
	waitFor(t, 10*time.Second, "failover after leader crash", func() bool {
		for i, r := range cl.reps {
			if i == victim {
				continue
			}
			tb := r.Table()
			for s := 0; s < tb.Slots(); s++ {
				if tb.Owner(s) == victim {
					return false
				}
			}
		}
		return true
	})

	// Survivors still answer; spot-check a handful of ids.
	ctx := context.Background()
	caller := cl.reps[(victim+1)%len(cl.reps)]
	for _, n := range cl.g.Nodes[:20] {
		want, err := cl.ref.Score(ctx, n.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := caller.Score(ctx, n.ID)
		if err != nil {
			t.Fatalf("score %d after leader crash: %v", n.ID, err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("node %d: got %v want %v", n.ID, got, want)
			}
		}
	}
}

// TestFailoverTablePure exercises the failover table builder directly.
func TestFailoverTablePure(t *testing.T) {
	base, err := placement.Even([]string{"a:1", "b:2", "c:3"}, 12)
	if err != nil {
		t.Fatal(err)
	}

	next, moved, err := failoverTable(base, 1, map[int]bool{0: true, 2: true})
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(base.SlotsOf(1)) {
		t.Fatalf("moved %d slots, want %d", moved, len(base.SlotsOf(1)))
	}
	if next.Epoch != base.Epoch+uint64(moved) {
		t.Fatalf("epoch %d, want %d", next.Epoch, base.Epoch+uint64(moved))
	}
	for s := 0; s < next.Slots(); s++ {
		if next.Owner(s) == 1 {
			t.Fatalf("slot %d still owned by dead replica", s)
		}
		if base.Owner(s) != 1 && next.Owner(s) != base.Owner(s) {
			t.Fatalf("slot %d moved from surviving owner %d to %d", s, base.Owner(s), next.Owner(s))
		}
	}

	// Dead replica listed alive is a bug upstream — rejected.
	if _, _, err := failoverTable(base, 1, map[int]bool{0: true, 1: true}); err == nil {
		t.Fatal("alive dead replica accepted")
	}
	// Nobody left standing.
	if _, _, err := failoverTable(base, 1, map[int]bool{}); err == nil {
		t.Fatal("empty alive set accepted")
	}
	// Dead replica owning nothing is a no-op.
	only, err := placement.Even([]string{"a:1", "b:2"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cur := only
	for _, s := range only.SlotsOf(1) {
		if cur, err = cur.WithOwner(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, moved, err := failoverTable(cur, 1, map[int]bool{0: true}); err != nil || moved != 0 {
		t.Fatalf("no-op failover: moved=%d err=%v", moved, err)
	}
}

// TestAssessPeer pins the suspect→dead thresholds.
func TestAssessPeer(t *testing.T) {
	const sus, dead = 100 * time.Millisecond, 300 * time.Millisecond
	cases := []struct {
		age  time.Duration
		want peerHealth
	}{
		{0, peerHealthy},
		{99 * time.Millisecond, peerHealthy},
		{100 * time.Millisecond, peerSuspect},
		{299 * time.Millisecond, peerSuspect},
		{300 * time.Millisecond, peerDead},
		{time.Hour, peerDead},
	}
	for _, c := range cases {
		if got := assessPeer(c.age, sus, dead); got != c.want {
			t.Errorf("assessPeer(%v) = %d, want %d", c.age, got, c.want)
		}
	}
}

// TestFreezeTTLDeterministic drives the migration write-freeze watchdog
// with a fake clock: no real time passes, yet the TTL fires exactly at
// the deadline and the paused-time metric records the TTL, not wall time.
func TestFreezeTTLDeterministic(t *testing.T) {
	fake := clockx.NewFake()
	f := &freezer{clk: fake}

	f.freeze(10 * time.Second)
	f.mu.Lock()
	frozen := f.frozen
	f.mu.Unlock()
	if !frozen {
		t.Fatal("freeze did not freeze")
	}

	// One nanosecond short of the TTL: still frozen.
	fake.Advance(10*time.Second - time.Nanosecond)
	f.mu.Lock()
	frozen = f.frozen
	f.mu.Unlock()
	if !frozen {
		t.Fatal("watchdog fired early")
	}

	fake.Advance(time.Nanosecond)
	f.mu.Lock()
	frozen = f.frozen
	f.mu.Unlock()
	if frozen {
		t.Fatal("watchdog did not fire at TTL")
	}
	if got := f.pausedNs.Load(); got != int64(10*time.Second) {
		t.Fatalf("pausedNs = %d, want %d", got, int64(10*time.Second))
	}

	// Re-freezing re-arms the watchdog from now.
	f.freeze(time.Second)
	fake.Advance(time.Second)
	f.mu.Lock()
	frozen = f.frozen
	f.mu.Unlock()
	if frozen {
		t.Fatal("re-armed watchdog did not fire")
	}
}

// TestClusterStatsFlowToFlightRecorder: the retry counter of ClusterStats,
// which Join registers with the wrapped server, reaches the AGLFR002
// samples whole — the samples' deltas sum to the replica's total.
func TestClusterStatsFlowToFlightRecorder(t *testing.T) {
	cl := buildCluster(t, 2)

	// Force proxied reads through a dead peer so retries are counted.
	if err := cl.reps[1].Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	tb := cl.reps[0].Table()
	var remote int64 = -1
	for _, n := range cl.g.Nodes {
		if tb.OwnerOf(n.ID) == 1 {
			remote = n.ID
			break
		}
	}
	if remote < 0 {
		t.Fatal("no node owned by replica 1")
	}
	if _, err := cl.reps[0].Score(ctx, remote); err == nil {
		t.Fatal("score against dead peer unexpectedly succeeded")
	}

	// Closing the server appends the final sample, covering the retries.
	srv := cl.reps[0].Server()
	srv.Close()
	cs := cl.reps[0].ClusterStats()
	if cs.ProxiedRetries == 0 {
		t.Fatalf("no proxied retries recorded: %+v", cs)
	}
	var sum int64
	for _, s := range srv.Flight() {
		sum += int64(s.ProxiedRetries)
	}
	if sum != cs.ProxiedRetries {
		t.Fatalf("flight samples sum %d proxied retries, ClusterStats counts %d", sum, cs.ProxiedRetries)
	}
}
