package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"agl/internal/clockx"
	"agl/internal/consensus"
	"agl/internal/placement"
	"agl/internal/rpcx"
)

// This file binds the cluster to internal/consensus: the placement
// table becomes the FSM of a raft-replicated log, raft heartbeats
// double as the failure detector, and the leader reacts to a dead
// replica by committing a failover table that reassigns its slots to
// survivors. Everything here is opt-in via EnableConsensus; without it
// the replica behaves exactly as in PR-8 (static table, push-based
// distribution).
//
// Failover correctness leans on the PR-8 serving invariants rather than
// on copying state out of the corpse: the graph and model are fully
// replicated, so any survivor can serve any id — cold. Un-copied warm
// rows are recomputed on demand (bit-equal for float stores, within the
// documented cold tolerance otherwise); deployments sharing a store
// file get instant warm coverage because every replica's base store
// already holds all rows. A returning replica rejoins raft, learns the
// committed table, and owns nothing until an operator migrates slots
// back.

// proposeTimeout bounds one placement proposal (raft commit round).
const proposeTimeout = 10 * time.Second

// proposeForwardRetries bounds leader-forwarding attempts through
// election churn.
const proposeForwardRetries = 5

// ConsensusConfig configures EnableConsensus. The replica addresses in
// the placement table are the raft member identities.
type ConsensusConfig struct {
	// WALDir holds this node's raft WAL (raft-<id>.wal). Empty runs
	// without persistence — in-process tests only; real deployments
	// lose election safety across restarts without it.
	WALDir string

	// SuspectAfter flags a peer whose last heartbeat reply is older than
	// this (observability only); DeadAfter triggers failover. Defaults:
	// 2s / 5s.
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// Raft timers; zero values take the consensus package defaults.
	HeartbeatInterval  time.Duration
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration

	// Clock drives the failure-detection monitor (tests inject a fake).
	// The raft node itself always runs on the same clock.
	Clock clockx.Clock

	Seed int64
	Logf func(format string, args ...any)
}

// replicaConsensus is the live consensus state hung off a Replica.
type replicaConsensus struct {
	r    *Replica
	node *consensus.Node
	cfg  ConsensusConfig

	addrOf map[string]int // raft identity (address) → replica index

	heartbeatsMissed atomic.Int64
	failovers        atomic.Int64

	mu         sync.Mutex
	failedOver map[int]bool // replica index → failover already committed

	stop chan struct{}
	wg   sync.WaitGroup
}

// EnableConsensus starts the raft node (replaying its WAL) and the
// leader-side failure monitor. Call after Join; the table installed by
// Join seeds the FSM state and the raft member set.
func (r *Replica) EnableConsensus(cfg ConsensusConfig) error {
	t := r.Table()
	if t == nil {
		return errors.New("serve: EnableConsensus before Join")
	}
	if r.cns.Load() != nil {
		return errors.New("serve: consensus already enabled")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * time.Second
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = 5 * time.Second
		if cfg.DeadAfter <= cfg.SuspectAfter {
			cfg.DeadAfter = 2 * cfg.SuspectAfter
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = clockx.Real{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	c := &replicaConsensus{
		r:          r,
		cfg:        cfg,
		addrOf:     make(map[string]int, len(t.Replicas)),
		failedOver: make(map[int]bool),
		stop:       make(chan struct{}),
	}
	for i, addr := range t.Replicas {
		c.addrOf[addr] = i
	}
	walPath := ""
	if cfg.WALDir != "" {
		walPath = filepath.Join(cfg.WALDir, fmt.Sprintf("raft-%d.wal", r.id))
	}
	node, err := consensus.New(consensus.Config{
		ID:                 r.Addr(),
		Peers:              append([]string(nil), t.Replicas...),
		WALPath:            walPath,
		Transport:          &raftTransport{c: c},
		FSM:                &placementFSM{c: c},
		Clock:              cfg.Clock,
		HeartbeatInterval:  cfg.HeartbeatInterval,
		ElectionTimeoutMin: cfg.ElectionTimeoutMin,
		ElectionTimeoutMax: cfg.ElectionTimeoutMax,
		Seed:               cfg.Seed,
		Logf:               cfg.Logf,
	})
	if err != nil {
		return err
	}
	c.node = node
	if !r.cns.CompareAndSwap(nil, c) {
		node.Close()
		return errors.New("serve: consensus already enabled")
	}
	c.wg.Add(1)
	go c.monitor()
	return nil
}

// ConsensusNode exposes the raft node (nil when not enabled) — status
// surfaces and tests.
func (r *Replica) ConsensusNode() *consensus.Node {
	if c := r.cns.Load(); c != nil {
		return c.node
	}
	return nil
}

func (c *replicaConsensus) close() {
	close(c.stop)
	c.wg.Wait()
	c.node.Close()
}

// ---------------------------------------------------------------------------
// Transport: raft RPCs ride the replica's pooled rpcx clients.

type raftTransport struct{ c *replicaConsensus }

func (t *raftTransport) client(peer string) (*rpcx.Client, error) {
	idx, ok := t.c.addrOf[peer]
	if !ok {
		return nil, fmt.Errorf("serve: raft peer %q not in placement table", peer)
	}
	cl := t.c.r.peerClient(idx)
	if cl == nil {
		return nil, fmt.Errorf("serve: no client for raft peer %q", peer)
	}
	return cl, nil
}

func (t *raftTransport) RequestVote(ctx context.Context, peer string, args *consensus.VoteArgs, reply *consensus.VoteReply) error {
	cl, err := t.client(peer)
	if err != nil {
		return err
	}
	return cl.Call(ctx, "Replica.RaftVote", args, reply)
}

func (t *raftTransport) AppendEntries(ctx context.Context, peer string, args *consensus.AppendArgs, reply *consensus.AppendReply) error {
	cl, err := t.client(peer)
	if err != nil {
		return err
	}
	return cl.Call(ctx, "Replica.RaftAppend", args, reply)
}

// ---------------------------------------------------------------------------
// FSM: committed entries are JSON placement tables, adopted iff newer —
// idempotent, so log replay after restart converges to the same table.

type placementFSM struct{ c *replicaConsensus }

func (f *placementFSM) Apply(e consensus.Entry) {
	t, err := placement.Read(bytes.NewReader(e.Cmd))
	if err != nil {
		f.c.cfg.Logf("serve: consensus entry %d undecodable: %v", e.Index, err)
		return
	}
	if err := f.c.r.adoptTable(t); err != nil {
		f.c.cfg.Logf("serve: consensus entry %d rejected: %v", e.Index, err)
	}
}

// ---------------------------------------------------------------------------
// Proposal path.

// proposeLocal proposes t on this node (which must be the leader).
func (c *replicaConsensus) proposeLocal(ctx context.Context, t *placement.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cmd, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return c.node.Propose(ctx, cmd)
}

// proposeTable commits t to the replicated log from anywhere in the
// cluster: leaders propose directly, followers forward to the leader
// (retrying through election churn). On success the local FSM has
// applied the table.
func (c *replicaConsensus) proposeTable(ctx context.Context, t *placement.Table) error {
	var last error
	for attempt := 0; attempt < proposeForwardRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		leader, isSelf := c.node.Leader()
		if isSelf {
			err := c.proposeLocal(ctx, t)
			if err == nil || !errors.Is(err, consensus.ErrNotLeader) && !errors.Is(err, consensus.ErrLost) {
				return err
			}
			last = err
			continue
		}
		if leader == "" {
			last = &consensus.NotLeaderError{}
			continue // no leader known yet; wait out the election
		}
		idx, ok := c.addrOf[leader]
		if !ok {
			last = fmt.Errorf("serve: unknown raft leader %q", leader)
			continue
		}
		var reply TableReply
		err := c.r.call(ctx, idx, "Replica.ProposeTable", &TableArgs{Table: t}, &reply)
		if err == nil {
			// Committed on the leader; adopt immediately rather than
			// waiting for the commit to reach us via AppendEntries.
			return c.r.adoptTable(t)
		}
		last = err
	}
	return fmt.Errorf("serve: propose table epoch %d: %w", t.Epoch, last)
}

// ---------------------------------------------------------------------------
// Failure detection + automatic failover.

// peerHealth is the suspect→dead state machine's verdict for one peer.
type peerHealth int

const (
	peerHealthy peerHealth = iota
	peerSuspect
	peerDead
)

// assessPeer classifies a heartbeat-reply age. Pure — the deterministic
// unit under test.
func assessPeer(sinceContact, suspectAfter, deadAfter time.Duration) peerHealth {
	switch {
	case sinceContact >= deadAfter:
		return peerDead
	case sinceContact >= suspectAfter:
		return peerSuspect
	default:
		return peerHealthy
	}
}

// monitor is the leader-side failure detector: every SuspectAfter/2 it
// classifies each peer by the age of its last raft heartbeat reply and
// commits a failover table for peers that cross DeadAfter. Non-leaders
// run the loop too but observe only (raft contact times are
// leader-side); leadership can arrive at any tick.
func (c *replicaConsensus) monitor() {
	defer c.wg.Done()
	tick := c.cfg.SuspectAfter / 2
	if tick <= 0 {
		tick = time.Second
	}
	clk := c.cfg.Clock
	for {
		woke := make(chan struct{})
		tm := clk.AfterFunc(tick, func() { close(woke) })
		select {
		case <-c.stop:
			tm.Stop()
			return
		case <-woke:
		}
		if !c.node.IsLeader() {
			continue
		}
		t := c.r.Table()
		if t == nil {
			continue
		}
		for idx, addr := range t.Replicas {
			if idx == c.r.id {
				continue
			}
			contact := c.node.PeerContact(addr)
			if contact.IsZero() {
				continue // no sample since this node became leader
			}
			switch assessPeer(clk.Since(contact), c.cfg.SuspectAfter, c.cfg.DeadAfter) {
			case peerHealthy:
				c.mu.Lock()
				c.failedOver[idx] = false // peer came back; re-arm
				c.mu.Unlock()
			case peerSuspect:
				c.heartbeatsMissed.Add(1)
			case peerDead:
				c.heartbeatsMissed.Add(1)
				c.maybeFailover(idx, addr)
			}
		}
	}
}

// maybeFailover commits a table reassigning idx's slots to survivors —
// once per death (re-armed if the peer's heartbeats resume).
func (c *replicaConsensus) maybeFailover(idx int, addr string) {
	c.mu.Lock()
	if c.failedOver[idx] {
		c.mu.Unlock()
		return
	}
	c.failedOver[idx] = true
	c.mu.Unlock()

	t := c.r.Table()
	next, moved, err := failoverTable(t, idx, c.aliveSet(t))
	if err != nil {
		c.cfg.Logf("serve: failover for replica %d (%s): %v", idx, addr, err)
		c.mu.Lock()
		c.failedOver[idx] = false // retry next tick
		c.mu.Unlock()
		return
	}
	if moved == 0 {
		return // owns nothing; nothing to do
	}
	ctx, cancel := context.WithTimeout(context.Background(), proposeTimeout)
	defer cancel()
	if err := c.proposeLocal(ctx, next); err != nil {
		c.cfg.Logf("serve: failover commit for replica %d: %v", idx, err)
		c.mu.Lock()
		c.failedOver[idx] = false
		c.mu.Unlock()
		return
	}
	c.failovers.Add(1)
	c.cfg.Logf("serve: failover committed — replica %d dead, %d slots reassigned, epoch %d",
		idx, moved, next.Epoch)
}

// aliveSet lists replica indexes currently considered alive by the
// detector (self plus peers inside DeadAfter).
func (c *replicaConsensus) aliveSet(t *placement.Table) map[int]bool {
	alive := map[int]bool{c.r.id: true}
	clk := c.cfg.Clock
	for idx, addr := range t.Replicas {
		if idx == c.r.id {
			continue
		}
		contact := c.node.PeerContact(addr)
		if contact.IsZero() {
			continue
		}
		if assessPeer(clk.Since(contact), c.cfg.SuspectAfter, c.cfg.DeadAfter) != peerDead {
			alive[idx] = true
		}
	}
	return alive
}

// failoverTable derives the table in which dead's slots are reassigned
// round-robin across the alive set. Pure — unit-testable without a
// cluster. Each reassignment bumps the epoch, so the result is strictly
// newer than t by at least the number of moved slots.
func failoverTable(t *placement.Table, dead int, alive map[int]bool) (*placement.Table, int, error) {
	if t == nil {
		return nil, 0, errors.New("serve: no placement table")
	}
	if alive[dead] {
		return nil, 0, fmt.Errorf("serve: replica %d is in the alive set", dead)
	}
	var survivors []int
	for idx := range t.Replicas {
		if alive[idx] {
			survivors = append(survivors, idx)
		}
	}
	if len(survivors) == 0 {
		return nil, 0, errors.New("serve: no survivors to fail over to")
	}
	next := t
	moved := 0
	for slot := 0; slot < t.Slots(); slot++ {
		if next.Owner(slot) != dead {
			continue
		}
		nt, err := next.WithOwner(slot, survivors[moved%len(survivors)])
		if err != nil {
			return nil, 0, err
		}
		next = nt
		moved++
	}
	return next, moved, nil
}
