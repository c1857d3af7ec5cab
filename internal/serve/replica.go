package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agl/internal/clockx"
	"agl/internal/consensus"
	"agl/internal/graph"
	"agl/internal/placement"
	"agl/internal/rpcx"
)

// This file is the sharded serving tier: a Replica wraps one Server and
// routes by the placement table, turning N aglserve processes into one
// cluster.
//
// Partitioning model. The GRAPH is fully replicated — every replica
// applies every mutation batch, because cold scoring needs arbitrary k-hop
// neighborhoods and those do not respect hash-slot boundaries. What is
// partitioned is the WARM state: each replica's embedding store, overlay,
// and score cache hold only the node ids whose hash slot it owns, so N
// replicas hold N-th of the warm tier each and run N independent batcher
// goroutines (the cold-path throughput multiplier).
//
// Request routing. A read is one unit of work per owner (gather): the ids
// of a Score, ScoreMany or ScoreLink are grouped by owner and every remote
// owner gets ONE rpcx call carrying its whole group, stamped with the
// router's placement epoch; Apply forwards its batch likewise. The owner
// fences on epoch equality and rejects mismatches with
// placement.EpochError, which the router resolves by exchanging tables and
// retrying (bounded). Link scoring gathers the endpoint rows this way and
// runs the pairwise head locally (models are replicated). All replicas of
// a fleet must run one build: the gob structs below are not versioned.
//
// Mutation flow. A batch routes to the owner of its first mutation's
// primary node. The owner applies locally, appends the applied batch to
// its authority log (per-replica sequence, decoupled from graph versions
// so follower-applied batches never echo), and synchronously fans the log
// tail out to every peer before returning — the same catch-up-feed shape
// as MutationsSince, keyed by (owner, seq). Each follower applies the
// batch through its own Server.Apply, so the k-hop dependency BFS runs
// everywhere and invalidation is cluster-wide: after Apply returns, every
// replica serves scores consistent with the new graph.
//
// Migration. Migrate moves one slot from its owner to another replica
// under a cluster-wide WRITE freeze (reads never pause): freeze + drain
// in-flight applies everywhere, snapshot the slot's clean rows, install
// them at the destination, push the epoch-bumped table (destination
// first), drop the source rows, unfreeze. The freeze makes the snapshot
// quiescent; the epoch fence makes the handover atomic for routed
// requests; and a replica with a stale table that self-serves a dropped
// slot still answers correctly (the full graph is local and leftover rows
// stay invalidation-tracked) — just slower, until the push reaches it.
//
// Fault tolerance. With EnableConsensus (replica_consensus.go) the
// placement table is the FSM of a raft-replicated log: migrations and
// failovers commit as log entries, the leader's AppendEntries heartbeats
// double as the failure detector, and a replica that dies has its slots
// reassigned to survivors by a committed failover table — no operator
// re-seed. Proxied reads retry transport failures with jittered backoff
// and fail fast through a per-peer circuit breaker (typed ErrPeerDown →
// HTTP 503 + Retry-After at the edge).
//
// Known limits (documented, ROADMAP item): membership is fixed at boot
// (migration and failover move slots among the boot-time replica set; a
// dead member still counts toward raft quorum, so a 3-replica cluster
// tolerates exactly one failure), and a peer that stays unreachable past
// the authority log's capacity desyncs (counted in
// ClusterStats.FanoutErrors) until restarted from a fresh snapshot.

// replicaLogCap bounds the authority log, mirroring graph.DefaultLogCap.
const replicaLogCap = 1024

// routeRetries bounds epoch-fence retry loops; each retry exchanges
// tables with the rejecting peer, so a handful always converges outside
// of actual partitions.
const routeRetries = 4

// DefaultFreezeTTL is the migration write-freeze watchdog: every frozen
// replica thaws itself after this long even if the coordinator dies
// mid-migration, so a failed migration costs one bounded pause, not a
// wedged cluster.
const DefaultFreezeTTL = 10 * time.Second

// ---------------------------------------------------------------------------
// Wire types (gob over rpcx).

// ScoreArgs carries one owner's share of a routed read, for Replica.Score
// and Replica.Embed alike: the ids of a bulk that this owner serves (one
// id for a single Score or EmbedRow). Epoch fence and deadline are per call.
type ScoreArgs struct {
	Epoch             uint64
	Nodes             []int64
	DeadlineUnixNanos int64 // 0 = none
}

// ScoreReply answers ScoreArgs.Nodes by position; Errs as errsToWire.
type ScoreReply struct {
	Scores [][]float64
	Errs   []string
}

// EmbedReply answers ScoreArgs.Nodes by position with layer-K rows in
// their native codecs, so a quantized replica's payloads stay int8 on the
// wire and float rows stay bit-exact; Errs as errsToWire.
type EmbedReply struct {
	Rows []Row
	Errs []string
}

// ApplyArgs forwards a whole mutation batch to its owning replica.
type ApplyArgs struct {
	Epoch             uint64
	Muts              []graph.Mutation
	DeadlineUnixNanos int64
}

// ApplyReply is the gob-safe form of ApplyResult ("" = nil error).
type ApplyReply struct {
	Version     uint64
	Applied     int
	Invalidated int
	Errs        []string
}

// AuthEntry is one authority-log record: a batch this replica accepted as
// slot owner, under its own monotone sequence.
type AuthEntry struct {
	Seq  uint64
	Muts []graph.Mutation
}

// SyncArgs pushes the authority-log tail (FromSeq, last] to a follower.
type SyncArgs struct {
	From    int // owning replica id
	FromSeq uint64
	Entries []AuthEntry
}

// SyncReply acks the highest contiguously applied sequence.
type SyncReply struct{ AckSeq uint64 }

// InstallArgs delivers a migrating slot's clean warm rows in their native
// codecs.
type InstallArgs struct {
	Epoch uint64
	Slot  int
	Rows  map[int64]Row
}

// InstallReply reports how many rows were admitted.
type InstallReply struct{ Installed int }

// TableArgs pushes a placement table (adopted iff its epoch is newer).
type TableArgs struct{ Table *placement.Table }

// TableReply reports the receiver's epoch after the push (or fetch).
type TableReply struct {
	Epoch uint64
	Table *placement.Table
}

// FreezeArgs opens a write freeze with a watchdog TTL; the reply is sent
// only after in-flight authority applies drain.
type FreezeArgs struct{ TTLNanos int64 }

// NoArgs is the empty RPC body.
type NoArgs struct{}

// ---------------------------------------------------------------------------
// Error codec: typed serve errors flattened to tagged strings for the
// net/rpc boundary and re-typed on the caller, so HTTP status mapping
// (404/429/408/...) survives cross-replica forwarding.

// wireShed tags a ShedError, whose fields travel with it:
// serve/shed:<retryAfterNs>:<pending>:<limit>:
const wireShed = "serve/shed:"

// wireTags pairs every other typed error with its tag, in matching order
// (ErrExpired is also a DeadlineExceeded, so it comes first).
var wireTags = []struct {
	tag string
	err error
}{
	{"serve/unknown-node:", ErrUnknownNode},
	{"serve/no-edge-head:", ErrNoEdgeHead},
	{"serve/expired:", ErrExpired},
	{"serve/closed:", ErrClosed},
	{"serve/deadline:", context.DeadlineExceeded},
	{"serve/canceled:", context.Canceled},
}

func errToWire(err error) error {
	if err == nil {
		return nil
	}
	var shed *ShedError
	if errors.As(err, &shed) {
		return fmt.Errorf("%s%d:%d:%d: %s", wireShed,
			shed.RetryAfter.Nanoseconds(), shed.Pending, shed.Limit, err)
	}
	for _, m := range wireTags {
		if errors.Is(err, m.err) {
			return fmt.Errorf("%s %w", m.tag, err)
		}
	}
	return placement.EncodeError(err)
}

// errFromWire re-types what errToWire flattened. A tag counts only at the
// start of the text, where errToWire puts it: text quoted further in can
// never pass for one.
func errFromWire(err error) error {
	if err == nil {
		return nil
	}
	s := err.Error()
	if rest, ok := strings.CutPrefix(s, wireShed); ok {
		var ra int64
		var pend, lim int
		if _, serr := fmt.Sscanf(rest, "%d:%d:%d:", &ra, &pend, &lim); serr != nil {
			return err
		}
		return &ShedError{RetryAfter: time.Duration(ra), Pending: pend, Limit: lim}
	}
	for _, m := range wireTags {
		if strings.HasPrefix(s, m.tag) {
			return fmt.Errorf("replica: %w", m.err)
		}
	}
	return placement.DecodeError(err)
}

// errsToWire and errsFromWire carry a bulk reply's positional errors (nil
// = none failed, "" = this one did not), each in errToWire's tagged text so
// it stays typed; n is the reply's length, for the nil case.
func errsToWire(errs []error) []string {
	var out []string
	for i, err := range errs {
		if err != nil {
			if out == nil {
				out = make([]string, len(errs))
			}
			out[i] = errToWire(err).Error()
		}
	}
	return out
}

func errsFromWire(texts []string, n int) []error {
	out := make([]error, max(n, len(texts)))
	for i, text := range texts {
		if text != "" {
			out[i] = errFromWire(errors.New(text))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Write freezer.

// freezer gates NEW authority applies during migration; follower Sync
// applies are deliberately NOT gated (an in-flight authority apply must be
// able to finish its fan-out, or the drain below would deadlock).
//
// Its TTL watchdog runs on an injected clockx.Clock so timing tests
// advance a fake clock instead of sleeping out real TTLs.
type freezer struct {
	mu     sync.Mutex
	frozen bool
	thaw   chan struct{} // non-nil while frozen; closed on unfreeze
	timer  clockx.Timer
	start  time.Time
	clk    clockx.Clock // nil = real time

	inflight sync.WaitGroup // in-flight authority applies

	pausedNs atomic.Int64 // cumulative frozen time (metric)
}

// clock returns the injected time source (callers hold f.mu).
func (f *freezer) clock() clockx.Clock {
	if f.clk == nil {
		f.clk = clockx.Real{}
	}
	return f.clk
}

// enter blocks while frozen, then claims an in-flight slot.
func (f *freezer) enter(ctx context.Context) error {
	for {
		f.mu.Lock()
		if !f.frozen {
			f.inflight.Add(1)
			f.mu.Unlock()
			return nil
		}
		ch := f.thaw
		f.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (f *freezer) exit() { f.inflight.Done() }

// freeze opens the gate and DRAINS: it returns only once every in-flight
// authority apply (fan-out included) has finished, so post-freeze state is
// quiescent. The TTL watchdog thaws a replica whose coordinator died.
func (f *freezer) freeze(ttl time.Duration) {
	f.mu.Lock()
	clk := f.clock()
	if !f.frozen {
		f.frozen = true
		f.thaw = make(chan struct{})
		f.start = clk.Now()
	}
	if f.timer != nil {
		f.timer.Stop()
	}
	f.timer = clk.AfterFunc(ttl, f.unfreeze)
	f.mu.Unlock()
	f.inflight.Wait()
}

func (f *freezer) unfreeze() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.frozen {
		return
	}
	f.frozen = false
	f.pausedNs.Add(f.clock().Since(f.start).Nanoseconds())
	close(f.thaw)
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
}

// ---------------------------------------------------------------------------
// Replica.

// ClusterStats snapshots the cluster-layer counters of one replica.
type ClusterStats struct {
	ReplicaID    int    // this replica's index
	Epoch        uint64 // current placement epoch
	OwnedSlots   int    // slots owned under the current table
	AuthSeq      uint64 // authority-log high-water mark
	Forwards     int64  // calls sent to a peer: one per remote owner of a read, one per routed apply
	EpochRejects int64  // epoch-fence bounces seen as a caller
	FanoutErrors int64  // follower syncs that failed or partially acked
	PausedMs     int64  // cumulative write-freeze time on this replica

	// Consensus + cluster health (zero unless EnableConsensus).
	ConsensusOn      bool   // raft-backed placement active
	RaftLeader       string // known leader address ("" = none known)
	RaftIsLeader     bool   // this replica currently leads
	RaftTerm         uint64 // current raft term
	HeartbeatsMissed int64  // suspect-or-worse detector observations
	Failovers        int64  // committed failover tables proposed by this node
	ProxiedRetries   int64  // backoff retries on proxied reads (all peers)
	BreakerOpens     int64  // circuit-breaker open transitions (all peers)
}

// Replica is one member of a sharded serving cluster: a Server plus the
// placement-routed RPC fabric. Create with NewReplica (which binds the
// internal RPC listener), then Join with the cluster's placement table.
type Replica struct {
	id  int
	srv *Server

	rpc *rpcx.Server

	tmu   sync.RWMutex
	table *placement.Table
	peers []*rpcx.Client // indexed by replica id; nil at self

	frz freezer

	// Authority log (this replica as owner). amu is held across fan-out
	// RPCs to keep per-owner entries totally ordered; Sync handlers on the
	// receiving side use fmu, never amu, so cross-replica apply cycles
	// cannot deadlock. authSeq is written under amu but atomic, so
	// ClusterStats reads it without waiting out a fan-out.
	amu     sync.Mutex
	authSeq atomic.Uint64
	authLog []AuthEntry
	cursors []uint64 // cursors[peer] = last seq acked by peer

	// Follower state (this replica as receiver of peers' authority logs).
	fmu     sync.Mutex
	applied []uint64 // applied[owner] = last seq applied from owner

	migrateMu sync.Mutex

	forwards     atomic.Int64
	epochRejects atomic.Int64
	fanoutErrs   atomic.Int64

	freezeTTL time.Duration
	closed    atomic.Bool

	// Consensus + failure detection (replica_consensus.go). nil unless
	// EnableConsensus was called.
	cns atomic.Pointer[replicaConsensus]
}

// NewReplica wraps srv as cluster member id and binds the internal RPC
// listener on listen ("127.0.0.1:0" picks an ephemeral port — read it back
// with Addr for table construction). The replica rejects traffic until
// Join installs a placement table.
func NewReplica(id int, srv *Server, listen string) (*Replica, error) {
	if id < 0 {
		return nil, fmt.Errorf("serve: replica id %d must be >= 0", id)
	}
	if srv == nil {
		return nil, errors.New("serve: nil server")
	}
	r := &Replica{id: id, srv: srv, freezeTTL: DefaultFreezeTTL}
	r.rpc = rpcx.NewServer()
	if err := r.rpc.Register("Replica", &replicaService{r: r}); err != nil {
		return nil, err
	}
	if _, err := r.rpc.Listen(listen); err != nil {
		return nil, err
	}
	return r, nil
}

// Addr returns the bound internal RPC address.
func (r *Replica) Addr() string { return r.rpc.Addr() }

// ID returns this replica's index.
func (r *Replica) ID() int { return r.id }

// Server exposes the wrapped local Server (stats, mutation feed, flight
// recorder — everything that is per-replica rather than cluster-routed).
func (r *Replica) Server() *Server { return r.srv }

// SetFreezeTTL overrides the migration freeze watchdog (tests).
func (r *Replica) SetFreezeTTL(d time.Duration) { r.freezeTTL = d }

// SetClock injects the time source driving the freeze-TTL watchdog (and
// any future replica-local timers), making timing tests deterministic.
// Call before the first freeze.
func (r *Replica) SetClock(clk clockx.Clock) {
	r.frz.mu.Lock()
	r.frz.clk = clk
	r.frz.mu.Unlock()
}

// Join installs the cluster's placement table and dials peers (lazily —
// peers need not be listening yet). The table must list this replica's
// bound address at index id.
func (r *Replica) Join(t *placement.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if r.id >= len(t.Replicas) {
		return fmt.Errorf("serve: replica id %d not in table of %d replicas", r.id, len(t.Replicas))
	}
	if t.Replicas[r.id] != r.Addr() {
		return fmt.Errorf("serve: table lists %q at index %d, but this replica is bound to %q",
			t.Replicas[r.id], r.id, r.Addr())
	}
	peers := make([]*rpcx.Client, len(t.Replicas))
	for i, addr := range t.Replicas {
		if i == r.id {
			continue
		}
		peers[i] = rpcx.NewClient(addr)
		// A dead peer costs one breaker cooldown, not a dial timeout per
		// request; routed reads fail fast with ErrPeerDown → HTTP 503.
		peers[i].SetBreaker(rpcx.DefaultBreakerThreshold, rpcx.DefaultBreakerCooldown)
	}
	r.tmu.Lock()
	r.table = t.Clone()
	r.peers = peers
	r.tmu.Unlock()

	r.amu.Lock()
	r.cursors = make([]uint64, len(t.Replicas))
	r.amu.Unlock()
	r.fmu.Lock()
	r.applied = make([]uint64, len(t.Replicas))
	r.fmu.Unlock()
	r.srv.setClusterStats(r.ClusterStats)
	return nil
}

// Table returns the replica's current placement table (a shared snapshot;
// treat as immutable).
func (r *Replica) Table() *placement.Table {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	return r.table
}

func (r *Replica) peerClient(peer int) *rpcx.Client {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	if peer < 0 || peer >= len(r.peers) {
		return nil
	}
	return r.peers[peer]
}

// Close tears the cluster fabric down: RPC listener, peer connections, and
// any freeze this replica holds. The wrapped Server is NOT closed — its
// lifetime belongs to the caller.
func (r *Replica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if c := r.cns.Load(); c != nil {
		c.close()
	}
	r.frz.unfreeze()
	r.rpc.Close()
	r.tmu.RLock()
	peers := r.peers
	r.tmu.RUnlock()
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
	return nil
}

// ClusterStats snapshots the cluster-layer counters. It never waits on an
// in-flight apply's fan-out, so /cluster and the flight recorder (which
// diffs it every interval) stay live behind a slow peer.
func (r *Replica) ClusterStats() ClusterStats {
	cs := ClusterStats{
		ReplicaID:    r.id,
		AuthSeq:      r.authSeq.Load(),
		Forwards:     r.forwards.Load(),
		EpochRejects: r.epochRejects.Load(),
		FanoutErrors: r.fanoutErrs.Load(),
		PausedMs:     r.frz.pausedNs.Load() / int64(time.Millisecond),
	}
	r.tmu.RLock()
	if t := r.table; t != nil {
		cs.Epoch = t.Epoch
		cs.OwnedSlots = len(t.SlotsOf(r.id))
	}
	for _, p := range r.peers {
		if p != nil {
			cs.ProxiedRetries += p.Retries()
			cs.BreakerOpens += p.BreakerOpens()
		}
	}
	r.tmu.RUnlock()
	if c := r.cns.Load(); c != nil {
		cs.ConsensusOn = true
		cs.RaftLeader, cs.RaftIsLeader = c.node.Leader()
		cs.RaftTerm = c.node.Term()
		cs.HeartbeatsMissed = c.heartbeatsMissed.Load()
		cs.Failovers = c.failovers.Load()
	}
	return cs
}

func (r *Replica) call(ctx context.Context, peer int, method string, args, reply any) error {
	c := r.peerClient(peer)
	if c == nil {
		return fmt.Errorf("serve: replica %d has no route to peer %d (Join not called?)", r.id, peer)
	}
	return errFromWire(c.Call(ctx, method, args, reply))
}

// SetChaos installs a fault-injection table on every peer client (nil
// removes it): routed reads then see the table's drops, delays and
// duplicates as a flaky network (TestRoutedReadsBitExactUnderChaos).
func (r *Replica) SetChaos(ch *rpcx.Chaos) {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	for _, p := range r.peers {
		if p != nil {
			p.SetChaos(ch)
		}
	}
}

// fence rejects requests stamped with a different placement epoch.
func (r *Replica) fence(epoch uint64) error {
	t := r.Table()
	if t == nil {
		return errors.New("serve: replica has no placement table")
	}
	if t.Epoch != epoch {
		return &placement.EpochError{Have: t.Epoch, Got: epoch}
	}
	return nil
}

// retryRoute reports whether a routed call to owner that failed with err
// is worth routing again (at most routeRetries times): after ErrPeerDown
// once a failover has moved node away from the dead owner (the consensus
// FSM installs that table asynchronously, so this waits briefly for it),
// after an epoch-fence bounce once tables are exchanged with the rejecting
// peer (adopt theirs if newer, push ours if theirs is older).
func (r *Replica) retryRoute(ctx context.Context, node int64, owner, attempt int, err error) bool {
	if attempt >= routeRetries {
		return false
	}
	if errors.Is(err, rpcx.ErrPeerDown) {
		const window, poll = 250 * time.Millisecond, 25 * time.Millisecond
		for waited := time.Duration(0); ; waited += poll {
			if t := r.Table(); t != nil && t.OwnerOf(node) != owner {
				return true
			}
			if waited >= window {
				return false
			}
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return false
			}
		}
	}
	var ee *placement.EpochError
	if !errors.As(err, &ee) {
		return false
	}
	r.epochRejects.Add(1)
	var reply TableReply
	if ee.Have > ee.Got {
		if ferr := r.call(ctx, owner, "Replica.FetchTable", &NoArgs{}, &reply); ferr == nil && reply.Table != nil {
			r.adoptTable(reply.Table)
		}
	} else {
		_ = r.call(ctx, owner, "Replica.PushTable", &TableArgs{Table: r.Table()}, &reply)
	}
	// Brief backoff so a mid-push window settles before the next attempt.
	select {
	case <-time.After(time.Duration(attempt+1) * 2 * time.Millisecond):
		return true
	case <-ctx.Done():
		return false
	}
}

// adoptTable installs t iff it is strictly newer than the current table.
func (r *Replica) adoptTable(t *placement.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	if r.table == nil || t.Epoch > r.table.Epoch {
		r.table = t.Clone()
	}
	return nil
}

func deadlineArg(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return 0
}

func ctxFor(deadlineNanos int64) (context.Context, context.CancelFunc) {
	if deadlineNanos <= 0 {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), time.Unix(0, deadlineNanos))
}

// ---------------------------------------------------------------------------
// Routed request paths.

// gather is the one routed read. It answers nodes by position, one owner
// at a time: ids that all belong to this replica are answered by local;
// ids that all belong to one peer go to it in ONE method call stamped with
// the table's epoch (transport failures retried with jittered backoff —
// reads are safe to re-send), its reply R unpacked into positional values
// and errors; and ids of several owners are split by owner, each group
// gathered on its own, concurrently, and merged by position. So a read
// costs one hop per owning peer however many ids it names, and an epoch
// bounce or ErrPeerDown re-routes only the group that met it (retryRoute,
// which refreshes the table); any other whole-call error fails the group.
// t, when set, routes the first attempt: a group's is the table that split
// it, so a table another group's bounce installed meanwhile neither splits
// nor re-stamps it. Later attempts read the replica's table.
func gather[T, R any](ctx context.Context, r *Replica, t *placement.Table, nodes []int64, method string,
	local func(context.Context, []int64) ([]T, []error), unpack func(*R) ([]T, []error),
) ([]T, []error) {
	var err error
	for attempt := 0; len(nodes) > 0; attempt++ {
		if attempt > 0 || t == nil {
			t = r.Table()
		}
		if t == nil {
			err = errors.New("serve: replica has no placement table")
			break
		}
		owner, single := t.OwnerOf(nodes[0]), true
		for _, id := range nodes[1:] {
			single = single && t.OwnerOf(id) == owner
		}
		if !single {
			groups := make([][]int, len(t.Replicas))
			for i, id := range nodes {
				groups[t.OwnerOf(id)] = append(groups[t.OwnerOf(id)], i)
			}
			out, errs := make([]T, len(nodes)), make([]error, len(nodes))
			var wg sync.WaitGroup
			for _, pos := range groups {
				if len(pos) == 0 {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					ids := make([]int64, len(pos))
					for k, i := range pos {
						ids[k] = nodes[i]
					}
					vals, perr := gather(ctx, r, t, ids, method, local, unpack)
					for k, i := range pos {
						out[i], errs[i] = vals[k], perr[k]
					}
				}()
			}
			wg.Wait()
			return out, errs
		}
		if owner == r.id {
			return local(ctx, nodes)
		}
		c := r.peerClient(owner)
		if c == nil {
			err = fmt.Errorf("serve: replica %d has no route to peer %d (Join not called?)", r.id, owner)
			break
		}
		r.forwards.Add(1)
		var reply R
		err = errFromWire(c.CallIdempotent(ctx, method,
			&ScoreArgs{Epoch: t.Epoch, Nodes: nodes, DeadlineUnixNanos: deadlineArg(ctx)}, &reply))
		if err == nil {
			vals, perr := unpack(&reply)
			if len(vals) == len(nodes) && len(perr) == len(nodes) {
				return vals, perr
			}
			err = fmt.Errorf("serve: replica %d answered %d of %d ids", owner, len(vals), len(nodes))
			break
		}
		if !r.retryRoute(ctx, nodes[0], owner, attempt, err) {
			break
		}
	}
	errs := make([]error, len(nodes))
	for i := range errs {
		errs[i] = err
	}
	return make([]T, len(nodes)), errs
}

// Score is the one-id case of ScoreMany: the node's owner answers, this
// replica or a peer one hop away, retrying through epoch-fence bounces.
func (r *Replica) Score(ctx context.Context, node int64) ([]float64, error) {
	out, errs := r.ScoreMany(ctx, []int64{node})
	return out[0], errs[0]
}

// ScoreMany routes a bulk request as owner-grouped calls (gather): the ids
// this replica owns go through Server.ScoreMany, every other owner gets one
// Replica.Score call carrying all of its ids. Same positional contract as
// Server.ScoreMany, each error typed as its owner returned it.
func (r *Replica) ScoreMany(ctx context.Context, nodes []int64) ([][]float64, []error) {
	return gather(ctx, r, nil, nodes, "Replica.Score", r.srv.ScoreMany,
		func(reply *ScoreReply) ([][]float64, []error) {
			return reply.Scores, errsFromWire(reply.Errs, len(reply.Scores))
		})
}

// embedRows gathers endpoint rows from their owners (local or remote) in
// the owners' stored codecs: one Replica.Embed call per remote owner.
func (r *Replica) embedRows(ctx context.Context, nodes []int64) ([]Row, []error) {
	return gather(ctx, r, nil, nodes, "Replica.Embed", r.srv.embedRows,
		func(reply *EmbedReply) ([]Row, []error) {
			return reply.Rows, errsFromWire(reply.Errs, len(reply.Rows))
		})
}

// EmbedRow is the one-row case of embedRows.
func (r *Replica) EmbedRow(ctx context.Context, node int64) (Row, error) {
	rows, errs := r.embedRows(ctx, []int64{node})
	return rows[0], errs[0]
}

// ScoreLink scores the (src, dst) pair cluster-wide: both endpoints on
// this replica short-circuits to the local fast path; otherwise the two
// endpoint embeddings are gathered from their owners (the scatter: one
// call per remote owner, so both endpoints on one peer cost one hop) and
// the replicated pairwise head scores them locally (the gather).
// Consistency matches the single-process contract: each endpoint
// embedding is individually consistent with a committed graph version.
func (r *Replica) ScoreLink(ctx context.Context, src, dst int64) (float64, error) {
	if t := r.Table(); t != nil && t.OwnerOf(src) == r.id && t.OwnerOf(dst) == r.id {
		return r.srv.ScoreLink(ctx, src, dst)
	}
	rows, errs := r.embedRows(ctx, []int64{src, dst})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return r.srv.ScoreVecLink(ctx, rows[0], rows[1])
}

// primaryNode is the id a mutation batch routes by: the mutated node for
// node ops, the edge head (Dst — the invalidation seed) for edge ops.
func primaryNode(m graph.Mutation) int64 {
	switch m.Op {
	case graph.OpAddEdge, graph.OpRemoveEdge:
		return m.Dst
	}
	return m.ID
}

// Apply routes a whole mutation batch to the owner of its first mutation's
// primary node; the owner applies, logs, and synchronously fans out to
// every peer before returning, so on success the mutation is visible (and
// its invalidations applied) cluster-wide.
func (r *Replica) Apply(ctx context.Context, muts []graph.Mutation) (*ApplyResult, error) {
	if len(muts) == 0 {
		return r.srv.Apply(ctx, muts)
	}
	for attempt := 0; ; attempt++ {
		t := r.Table()
		if t == nil {
			return nil, errors.New("serve: replica has no placement table")
		}
		owner := t.OwnerOf(primaryNode(muts[0]))
		if owner == r.id {
			return r.applyAsOwner(ctx, muts)
		}
		r.forwards.Add(1)
		var reply ApplyReply
		err := r.call(ctx, owner, "Replica.Apply",
			&ApplyArgs{Epoch: t.Epoch, Muts: muts, DeadlineUnixNanos: deadlineArg(ctx)}, &reply)
		if err == nil {
			return reply.toResult(), nil
		}
		// ErrPeerDown here is a breaker-open fail-fast: nothing was sent, so
		// re-routing a write after failover is safe (an ambiguous mid-call
		// transport error is NOT retried — Apply is not idempotent).
		if !r.retryRoute(ctx, primaryNode(muts[0]), owner, attempt, err) {
			return nil, err
		}
	}
}

func (r *Replica) applyAsOwner(ctx context.Context, muts []graph.Mutation) (*ApplyResult, error) {
	if err := r.frz.enter(ctx); err != nil {
		return nil, err
	}
	defer r.frz.exit()
	res, err := r.srv.Apply(ctx, muts)
	if err != nil || res.Applied == 0 {
		return res, err
	}
	applied := make([]graph.Mutation, 0, res.Applied)
	for i := range muts {
		if res.Errs[i] == nil {
			applied = append(applied, muts[i])
		}
	}
	// Log + fan out under amu: per-owner entries stay totally ordered and
	// every peer acks before Apply returns. Fan-out runs on its own clock
	// (not the caller's deadline): a caller timeout must not leave peers
	// behind on a batch that already committed locally.
	r.amu.Lock()
	defer r.amu.Unlock()
	r.authLog = append(r.authLog, AuthEntry{Seq: r.authSeq.Add(1), Muts: applied})
	r.trimAuthLogLocked()
	fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.fanoutLocked(fctx)
	return res, err
}

// trimAuthLogLocked drops entries every peer has acked, hard-capped at
// replicaLogCap (an unreachable peer then desyncs — counted, documented).
func (r *Replica) trimAuthLogLocked() {
	minAck := r.authSeq.Load()
	for p := range r.cursors {
		if p == r.id {
			continue
		}
		if r.cursors[p] < minAck {
			minAck = r.cursors[p]
		}
	}
	keepFrom := 0
	for keepFrom < len(r.authLog) && r.authLog[keepFrom].Seq <= minAck {
		keepFrom++
	}
	if over := len(r.authLog) - keepFrom - replicaLogCap; over > 0 {
		keepFrom += over
	}
	if keepFrom > 0 {
		r.authLog = append([]AuthEntry(nil), r.authLog[keepFrom:]...)
	}
}

// fanoutLocked pushes the authority-log tail to every peer (amu held).
func (r *Replica) fanoutLocked(ctx context.Context) {
	r.tmu.RLock()
	n := len(r.peers)
	r.tmu.RUnlock()
	for p := 0; p < n; p++ {
		if p == r.id {
			continue
		}
		r.syncPeerLocked(ctx, p)
	}
}

func (r *Replica) syncPeerLocked(ctx context.Context, p int) {
	cursor := r.cursors[p]
	var ents []AuthEntry
	for _, e := range r.authLog {
		if e.Seq > cursor {
			ents = append(ents, e)
		}
	}
	if len(ents) == 0 {
		return
	}
	if ents[0].Seq != cursor+1 {
		// The log was trimmed past this peer's cursor: it cannot be caught
		// up incrementally anymore.
		r.fanoutErrs.Add(1)
		return
	}
	var reply SyncReply
	if err := r.call(ctx, p, "Replica.Sync",
		&SyncArgs{From: r.id, FromSeq: cursor, Entries: ents}, &reply); err != nil {
		r.fanoutErrs.Add(1)
		return
	}
	if reply.AckSeq > r.cursors[p] {
		r.cursors[p] = reply.AckSeq
	}
	if reply.AckSeq < ents[len(ents)-1].Seq {
		r.fanoutErrs.Add(1)
	}
}

func (rep *ApplyReply) toResult() *ApplyResult {
	res := &ApplyResult{
		Version:     rep.Version,
		Applied:     rep.Applied,
		Invalidated: rep.Invalidated,
		Errs:        make([]error, len(rep.Errs)),
	}
	for i, s := range rep.Errs {
		if s != "" {
			res.Errs[i] = errors.New(s)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Migration.

// MigrateResult summarizes one completed slot migration.
type MigrateResult struct {
	Slot      int           `json:"slot"`
	From      int           `json:"from"`
	To        int           `json:"to"`
	Epoch     uint64        `json:"epoch"`      // placement epoch after the move
	RowsMoved int           `json:"rows_moved"` // clean warm rows installed at the destination
	Pause     time.Duration `json:"pause_ns"`   // cluster write-freeze duration
}

// Migrate moves one slot from this replica (which must own it) to dst,
// live: reads keep flowing the whole time (routed reads bounce off the
// epoch fence for at most the table-push window), writes pause for the
// freeze-snapshot-install-push sequence, and the result is bit-identical
// serving — the destination answers warm from the installed rows, and
// every row a concurrent-looking mutation could have touched was already
// dirty (excluded from the snapshot) or is invalidated by the normal
// fan-out after the thaw.
func (r *Replica) Migrate(ctx context.Context, slot, dst int) (*MigrateResult, error) {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()

	t := r.Table()
	if t == nil {
		return nil, errors.New("serve: replica has no placement table")
	}
	if slot < 0 || slot >= t.Slots() {
		return nil, fmt.Errorf("serve: slot %d out of range [0,%d)", slot, t.Slots())
	}
	if t.Owner(slot) != r.id {
		return nil, fmt.Errorf("serve: replica %d does not own slot %d (owner is %d)", r.id, slot, t.Owner(slot))
	}
	if dst == r.id {
		return nil, fmt.Errorf("serve: slot %d already lives on replica %d", slot, dst)
	}
	if dst < 0 || dst >= len(t.Replicas) {
		return nil, fmt.Errorf("serve: destination %d out of range [0,%d)", dst, len(t.Replicas))
	}

	next, err := t.WithOwner(slot, dst)
	if err != nil {
		return nil, err
	}

	// 1. Cluster-wide write freeze + drain. Self first (stop producing),
	// then peers; each Freeze reply means that replica is drained.
	pauseStart := time.Now()
	r.frz.freeze(r.freezeTTL)
	for p := 0; p < len(t.Replicas); p++ {
		if p == r.id {
			continue
		}
		if err := r.call(ctx, p, "Replica.Freeze", &FreezeArgs{TTLNanos: int64(r.freezeTTL)}, &struct{}{}); err != nil {
			r.unfreezeAll(t)
			return nil, fmt.Errorf("serve: freeze replica %d: %w", p, err)
		}
	}

	// 2. Quiescent snapshot of the slot's clean warm rows.
	rows := r.srv.RowsInSlot(slot, t.Slots(), placement.SlotOf)

	// 3. Install at the destination (old epoch — the handover hasn't
	// happened yet).
	var ir InstallReply
	if err := r.call(ctx, dst, "Replica.Install",
		&InstallArgs{Epoch: t.Epoch, Slot: slot, Rows: rows}, &ir); err != nil {
		r.unfreezeAll(t)
		return nil, fmt.Errorf("serve: install slot %d on replica %d: %w", slot, dst, err)
	}

	// 4. Commit the epoch-bumped table. With consensus enabled it is
	// proposed as a raft log entry first — the handover is then durable
	// (it survives this coordinator crashing right here) — and the
	// direct pushes below become best-effort accelerators for replicas
	// that have not seen the commit yet. Without consensus the pushes
	// ARE the handover (PR-8 behavior).
	if c := r.cns.Load(); c != nil {
		if err := c.proposeTable(ctx, next); err != nil {
			r.unfreezeAll(t)
			return nil, fmt.Errorf("serve: commit table epoch %d: %w", next.Epoch, err)
		}
	}
	// Push destination first (it must accept routed traffic the moment
	// anyone routes by the new table), then the rest, self last. A
	// replica the push misses keeps bouncing routed requests off the
	// fence until the retry exchange (or the raft commit) delivers it.
	if err := r.call(ctx, dst, "Replica.PushTable", &TableArgs{Table: next}, &TableReply{}); err != nil {
		if r.cns.Load() == nil {
			// Destination never learned it owns the slot — abort (rows
			// installed there are harmless: overlay rows are invalidation-
			// tracked and it owns none of them for routing).
			r.unfreezeAll(t)
			return nil, fmt.Errorf("serve: push table to replica %d: %w", dst, err)
		}
		// Already raft-committed: the destination learns through the log.
		r.fanoutErrs.Add(1)
	}
	for p := 0; p < len(t.Replicas); p++ {
		if p == r.id || p == dst {
			continue
		}
		if err := r.call(ctx, p, "Replica.PushTable", &TableArgs{Table: next}, &TableReply{}); err != nil {
			r.fanoutErrs.Add(1) // fence + retry exchange will converge it
		}
	}
	if err := r.adoptTable(next); err != nil {
		r.unfreezeAll(next)
		return nil, err
	}

	// 5. Drop the moved rows locally (hygiene — leftover base-store rows
	// stay invalidation-tracked and are never routed to).
	r.srv.DropRows(func(id int64) bool { return placement.SlotOf(id, next.Slots()) == slot })

	// 6. Thaw.
	r.unfreezeAll(next)
	return &MigrateResult{
		Slot:      slot,
		From:      r.id,
		To:        dst,
		Epoch:     next.Epoch,
		RowsMoved: ir.Installed,
		Pause:     time.Since(pauseStart),
	}, nil
}

// unfreezeAll thaws self and every peer (best effort — the TTL watchdog
// covers a peer the call cannot reach).
func (r *Replica) unfreezeAll(t *placement.Table) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for p := 0; p < len(t.Replicas); p++ {
		if p == r.id {
			continue
		}
		_ = r.call(ctx, p, "Replica.Unfreeze", &NoArgs{}, &struct{}{})
	}
	r.frz.unfreeze()
}

// ---------------------------------------------------------------------------
// RPC service (the callee side of everything above).

type replicaService struct{ r *Replica }

func (rs *replicaService) Score(args *ScoreArgs, reply *ScoreReply) error {
	r := rs.r
	if err := r.fence(args.Epoch); err != nil {
		return errToWire(err)
	}
	ctx, cancel := ctxFor(args.DeadlineUnixNanos)
	defer cancel()
	scores, errs := r.srv.ScoreMany(ctx, args.Nodes)
	reply.Scores, reply.Errs = scores, errsToWire(errs)
	return nil
}

func (rs *replicaService) Embed(args *ScoreArgs, reply *EmbedReply) error {
	r := rs.r
	if err := r.fence(args.Epoch); err != nil {
		return errToWire(err)
	}
	ctx, cancel := ctxFor(args.DeadlineUnixNanos)
	defer cancel()
	rows, errs := r.srv.embedRows(ctx, args.Nodes)
	reply.Rows, reply.Errs = rows, errsToWire(errs)
	return nil
}

func (rs *replicaService) Apply(args *ApplyArgs, reply *ApplyReply) error {
	r := rs.r
	if err := r.fence(args.Epoch); err != nil {
		return errToWire(err)
	}
	ctx, cancel := ctxFor(args.DeadlineUnixNanos)
	defer cancel()
	// Ownership is the caller's routing decision; fencing guaranteed we
	// agree on the table, so apply as owner here.
	res, err := r.applyAsOwner(ctx, args.Muts)
	if err != nil {
		return errToWire(err)
	}
	reply.Version = res.Version
	reply.Applied = res.Applied
	reply.Invalidated = res.Invalidated
	reply.Errs = make([]string, len(res.Errs))
	for i, e := range res.Errs {
		if e != nil {
			reply.Errs[i] = e.Error()
		}
	}
	return nil
}

// Sync applies a peer's authority-log tail. Not epoch-fenced (catch-up
// must flow across epoch changes) and not freeze-gated (see freezer).
func (rs *replicaService) Sync(args *SyncArgs, reply *SyncReply) error {
	r := rs.r
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if args.From < 0 || args.From >= len(r.applied) {
		return errToWire(fmt.Errorf("serve: sync from unknown replica %d", args.From))
	}
	last := r.applied[args.From]
	for _, e := range args.Entries {
		if e.Seq <= last {
			continue // duplicate delivery — idempotent
		}
		if e.Seq != last+1 {
			break // gap: ack what we have, owner re-sends from there
		}
		if _, err := r.srv.Apply(context.Background(), e.Muts); err != nil {
			break
		}
		last = e.Seq
	}
	r.applied[args.From] = last
	reply.AckSeq = last
	return nil
}

func (rs *replicaService) Install(args *InstallArgs, reply *InstallReply) error {
	r := rs.r
	if err := r.fence(args.Epoch); err != nil {
		return errToWire(err)
	}
	reply.Installed = r.srv.InstallRows(args.Rows)
	return nil
}

func (rs *replicaService) PushTable(args *TableArgs, reply *TableReply) error {
	r := rs.r
	if args.Table == nil {
		return errToWire(errors.New("serve: nil table push"))
	}
	if err := r.adoptTable(args.Table); err != nil {
		return errToWire(err)
	}
	reply.Epoch = r.Table().Epoch
	return nil
}

func (rs *replicaService) FetchTable(_ *NoArgs, reply *TableReply) error {
	t := rs.r.Table()
	if t == nil {
		return errToWire(errors.New("serve: replica has no placement table"))
	}
	reply.Epoch = t.Epoch
	reply.Table = t.Clone()
	return nil
}

// Freeze opens the write freeze and replies only after this replica's
// in-flight authority applies drain (the coordinator's quiescence point).
func (rs *replicaService) Freeze(args *FreezeArgs, _ *struct{}) error {
	ttl := time.Duration(args.TTLNanos)
	if ttl <= 0 {
		ttl = DefaultFreezeTTL
	}
	rs.r.frz.freeze(ttl)
	return nil
}

func (rs *replicaService) Unfreeze(_ *NoArgs, _ *struct{}) error {
	rs.r.frz.unfreeze()
	return nil
}

// RaftVote delivers a raft RequestVote to this replica's consensus node.
func (rs *replicaService) RaftVote(args *consensus.VoteArgs, reply *consensus.VoteReply) error {
	c := rs.r.cns.Load()
	if c == nil {
		return errToWire(errors.New("serve: consensus not enabled"))
	}
	c.node.HandleRequestVote(args, reply)
	return nil
}

// RaftAppend delivers a raft AppendEntries (also the heartbeat).
func (rs *replicaService) RaftAppend(args *consensus.AppendArgs, reply *consensus.AppendReply) error {
	c := rs.r.cns.Load()
	if c == nil {
		return errToWire(errors.New("serve: consensus not enabled"))
	}
	c.node.HandleAppendEntries(args, reply)
	return nil
}

// ProposeTable accepts a forwarded placement proposal (a non-leader
// coordinator routes its table here, to the raft leader).
func (rs *replicaService) ProposeTable(args *TableArgs, reply *TableReply) error {
	r := rs.r
	c := r.cns.Load()
	if c == nil {
		return errToWire(errors.New("serve: consensus not enabled"))
	}
	if args.Table == nil {
		return errToWire(errors.New("serve: nil table proposal"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), proposeTimeout)
	defer cancel()
	if err := c.proposeLocal(ctx, args.Table); err != nil {
		return errToWire(err)
	}
	reply.Epoch = args.Table.Epoch
	return nil
}
