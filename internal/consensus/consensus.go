// Package consensus is a self-contained, dependency-free raft-style
// replicated log: randomized-timeout leader election, term/vote and log
// persistence to a small WAL, and majority commit, driving a single
// user-supplied FSM. It exists so the serving cluster's placement table
// is a *replicated* fact — placement changes (migrations, failovers)
// are committed log entries that survive replica crashes and minority
// partitions — instead of PR-8's best-effort push over a static peer
// list.
//
// Scope is deliberately the paper's core protocol, sized to this FSM's
// write rate (operator-rare): no log compaction or snapshots (the log
// is a placement history; it stays tiny), and no joint-consensus
// membership change (the member set is fixed at boot — a crashed member
// still counts toward quorum size, so a 3-node cluster tolerates
// exactly one dead node, which is the documented failure model).
//
// The transport is an interface; the serving tier binds it to
// internal/rpcx so raft heartbeats double as the cluster's failure
// detector (the leader's per-peer last-contact times are exposed via
// PeerContact).
package consensus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"agl/internal/clockx"
)

// Entry is one replicated log record. Index is 1-based and dense; a nil
// Cmd is an internal no-op (appended by a fresh leader to flush the
// commit index forward into its term) and is never handed to the FSM.
type Entry struct {
	Index uint64
	Term  uint64
	Cmd   []byte
}

// FSM consumes committed entries, in index order, exactly once per node
// lifetime (a restarted node re-applies from the beginning — Apply must
// be idempotent, which a "newest epoch wins" placement table is).
type FSM interface {
	Apply(e Entry)
}

// Transport carries the two raft RPCs to a peer. Implementations must
// honor ctx and may fail freely — the protocol tolerates loss,
// duplication, and delay.
type Transport interface {
	RequestVote(ctx context.Context, peer string, args *VoteArgs, reply *VoteReply) error
	AppendEntries(ctx context.Context, peer string, args *AppendArgs, reply *AppendReply) error
}

// VoteArgs is the RequestVote RPC request.
type VoteArgs struct {
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
}

// VoteReply is the RequestVote RPC response.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// AppendArgs is the AppendEntries RPC request (also the heartbeat when
// Entries is empty).
type AppendArgs struct {
	Term         uint64
	Leader       string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
}

// AppendReply is the AppendEntries RPC response. On log-mismatch
// rejection, ConflictIndex hints where the leader should back up to.
type AppendReply struct {
	Term          uint64
	Success       bool
	ConflictIndex uint64
}

// ErrNotLeader is matched by errors.Is when a proposal lands on a
// non-leader; the concrete *NotLeaderError carries a forwarding hint.
var ErrNotLeader = errors.New("consensus: not leader")

// NotLeaderError reports the proposal must go to Leader (possibly ""
// when no leader is known yet — retry after an election settles).
type NotLeaderError struct {
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "consensus: not leader (no leader known)"
	}
	return "consensus: not leader (leader is " + e.Leader + ")"
}

// Is matches the ErrNotLeader sentinel.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// ErrLost reports a proposal that was appended but then overwritten by
// a competing leader before committing — safe to retry.
var ErrLost = errors.New("consensus: proposal lost to a competing leader")

// ErrClosed is returned after Close, and after a failed WAL write or sync
// has stopped the node (the error then also carries the cause).
var ErrClosed = errors.New("consensus: closed")

// walFailedError is the error a node stopped by a failed WAL write or
// sync returns: a vote or entry it cannot make durable must not be
// granted or acknowledged, so the node takes no further part.
type walFailedError struct{ cause error }

func (e *walFailedError) Error() string {
	return "consensus: stopped after a failed WAL write: " + e.cause.Error()
}

// Is matches the ErrClosed sentinel.
func (e *walFailedError) Is(target error) bool { return target == ErrClosed }

func (e *walFailedError) Unwrap() error { return e.cause }

// Config configures a Node. ID must appear in Peers.
type Config struct {
	ID        string
	Peers     []string // full membership including self; fixed at boot
	WALPath   string   // "" = no persistence (tests only)
	Transport Transport
	FSM       FSM
	Clock     clockx.Clock // nil = real time

	HeartbeatInterval  time.Duration // default 75ms
	ElectionTimeoutMin time.Duration // default 300ms
	ElectionTimeoutMax time.Duration // default 600ms
	Seed               int64         // randomized election timeouts
	Logf               func(format string, args ...any)
}

type role int

const (
	follower role = iota
	candidate
	leader
)

// Node is one raft participant. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	clk   clockx.Clock
	peers []string // excluding self

	mu          sync.Mutex
	applyCond   *sync.Cond
	role        role
	term        uint64
	votedFor    string
	leaderID    string
	log         []Entry // log[i].Index == i+1
	commitIndex uint64
	lastApplied uint64
	lastReset   time.Time     // election timer origin
	timeoutCur  time.Duration // current randomized election timeout
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	contact     map[string]time.Time // leader-side last successful reply
	waiters     map[uint64][]chan waitResult
	rng         *rand.Rand
	wal         *wal
	closed      bool
	failed      error // set once by failLocked; the node is stopped

	kick   chan struct{} // wakes the replicator early (new proposal)
	stopCh chan struct{}
	wg     sync.WaitGroup
}

type waitResult struct {
	term uint64 // term of the entry actually committed at the index
	err  error
}

// New opens (replaying) the WAL and starts the node as a follower.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("consensus: empty ID")
	}
	self := false
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("consensus: ID %q not in peer set %v", cfg.ID, cfg.Peers)
	}
	if cfg.Transport == nil && len(cfg.Peers) > 1 {
		return nil, errors.New("consensus: nil transport with peers")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 75 * time.Millisecond
	}
	if cfg.ElectionTimeoutMin <= 0 {
		cfg.ElectionTimeoutMin = 300 * time.Millisecond
	}
	if cfg.ElectionTimeoutMax <= cfg.ElectionTimeoutMin {
		cfg.ElectionTimeoutMax = 2 * cfg.ElectionTimeoutMin
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clockx.Real{}
	}

	n := &Node{
		cfg:        cfg,
		clk:        clk,
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		contact:    make(map[string]time.Time),
		waiters:    make(map[uint64][]chan waitResult),
		kick:       make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
	}
	n.applyCond = sync.NewCond(&n.mu)
	for _, p := range cfg.Peers {
		if p != cfg.ID {
			n.peers = append(n.peers, p)
		}
	}
	seed := cfg.Seed
	for _, b := range []byte(cfg.ID) {
		seed = seed*1099511628211 + int64(b)
	}
	n.rng = rand.New(rand.NewSource(seed))

	if cfg.WALPath != "" {
		w, st, err := openWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		n.wal = w
		n.term = st.term
		n.votedFor = st.vote
		n.log = st.log
	}
	n.lastReset = clk.Now()
	n.timeoutCur = n.randTimeout()

	n.wg.Add(3)
	go n.electionLoop()
	go n.replicateLoop()
	go n.applyLoop()
	return n, nil
}

// Close stops the node's goroutines and closes the WAL. In-flight
// proposals fail with ErrClosed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stopCh)
	n.applyCond.Broadcast()
	for idx, chans := range n.waiters {
		for _, ch := range chans {
			ch <- waitResult{err: ErrClosed}
		}
		delete(n.waiters, idx)
	}
	w := n.wal
	n.mu.Unlock()
	n.wg.Wait()
	return w.Close()
}

// --- observables ---

// Term returns the current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Leader returns the known leader's ID ("" if none) and whether this
// node is it.
func (n *Node) Leader() (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == leader {
		return n.cfg.ID, true
	}
	return n.leaderID, false
}

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool {
	_, is := n.Leader()
	return is
}

// PeerContact returns the leader-side timestamp of the last successful
// AppendEntries reply from peer — the raft heartbeat doubling as the
// cluster failure detector. The zero time means no contact since this
// node became leader. Only meaningful on the leader.
func (n *Node) PeerContact(peer string) time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.contact[peer]
}

// --- proposal path ---

// Propose appends cmd to the replicated log and blocks until it commits
// (majority-replicated and applied to the local FSM), ctx ends, or the
// entry is overwritten by a competing leader (ErrLost). On non-leaders
// it fails fast with *NotLeaderError carrying the forwarding hint.
func (n *Node) Propose(ctx context.Context, cmd []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.failed != nil {
		err := n.failed
		n.mu.Unlock()
		return err
	}
	if n.role != leader {
		hint := n.leaderID
		n.mu.Unlock()
		return &NotLeaderError{Leader: hint}
	}
	e := Entry{Index: n.lastIndexLocked() + 1, Term: n.term, Cmd: cmd}
	n.log = append(n.log, e)
	if err := n.persistEntriesLocked(e); err != nil {
		n.mu.Unlock()
		return err
	}
	ch := make(chan waitResult, 1)
	n.waiters[e.Index] = append(n.waiters[e.Index], ch)
	if len(n.peers) == 0 {
		n.advanceCommitLocked() // single-node cluster: majority of one
	}
	n.mu.Unlock()

	// Wake the replicator so the entry does not wait a heartbeat.
	select {
	case n.kick <- struct{}{}:
	default:
	}

	select {
	case res := <-ch:
		if res.err != nil {
			return res.err
		}
		if res.term != e.Term {
			return ErrLost
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- RPC handlers (bound to the transport's server side) ---

// HandleRequestVote is the RequestVote receiver.
func (n *Node) HandleRequestVote(args *VoteArgs, reply *VoteReply) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if args.Term > n.term {
		n.becomeFollowerLocked(args.Term, "")
	}
	reply.Term = n.term
	if args.Term < n.term || n.failed != nil {
		return
	}
	upToDate := args.LastLogTerm > n.lastTermLocked() ||
		(args.LastLogTerm == n.lastTermLocked() && args.LastLogIndex >= n.lastIndexLocked())
	if (n.votedFor == "" || n.votedFor == args.Candidate) && upToDate {
		n.votedFor = args.Candidate
		if n.persistMetaLocked() != nil {
			return
		}
		n.resetElectionTimerLocked()
		reply.Granted = true
	}
}

// HandleAppendEntries is the AppendEntries receiver.
func (n *Node) HandleAppendEntries(args *AppendArgs, reply *AppendReply) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if args.Term > n.term {
		n.becomeFollowerLocked(args.Term, args.Leader)
	}
	reply.Term = n.term
	if args.Term < n.term || n.failed != nil {
		return
	}
	// Valid leader for this term: stay (or become) its follower.
	n.leaderID = args.Leader
	if n.role != follower {
		n.role = follower
	}
	n.resetElectionTimerLocked()

	// Log-matching check at PrevLogIndex.
	if args.PrevLogIndex > n.lastIndexLocked() {
		reply.ConflictIndex = n.lastIndexLocked() + 1
		return
	}
	if args.PrevLogIndex > 0 {
		have := n.log[args.PrevLogIndex-1].Term
		if have != args.PrevLogTerm {
			// Back up past the whole conflicting term in one hop.
			ci := args.PrevLogIndex
			for ci > 1 && n.log[ci-2].Term == have {
				ci--
			}
			reply.ConflictIndex = ci
			return
		}
	}
	// Append, truncating on the first divergence.
	for i, e := range args.Entries {
		if e.Index <= n.lastIndexLocked() {
			if n.log[e.Index-1].Term == e.Term {
				continue // already have it
			}
			n.truncateFromLocked(e.Index)
		}
		n.log = append(n.log, args.Entries[i:]...)
		if n.persistEntriesLocked(args.Entries[i:]...) != nil {
			return
		}
		break
	}
	if args.LeaderCommit > n.commitIndex {
		n.commitIndex = min64(args.LeaderCommit, n.lastIndexLocked())
		n.applyCond.Broadcast()
	}
	reply.Success = true
}

// --- election ---

// electionLoop ticks the randomized election timer; expiry on a
// non-leader starts a new election.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	tick := n.cfg.ElectionTimeoutMin / 10
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	for {
		woke := make(chan struct{})
		t := n.clk.AfterFunc(tick, func() { close(woke) })
		select {
		case <-n.stopCh:
			t.Stop()
			return
		case <-woke:
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		expired := n.role != leader && n.failed == nil && n.clk.Since(n.lastReset) >= n.timeoutCur
		if !expired {
			n.mu.Unlock()
			continue
		}
		// Become candidate: bump term, vote for self, solicit votes.
		n.role = candidate
		n.term++
		n.votedFor = n.cfg.ID
		n.leaderID = ""
		if n.persistMetaLocked() != nil {
			n.mu.Unlock()
			continue
		}
		n.resetElectionTimerLocked()
		term := n.term
		args := &VoteArgs{
			Term:         term,
			Candidate:    n.cfg.ID,
			LastLogIndex: n.lastIndexLocked(),
			LastLogTerm:  n.lastTermLocked(),
		}
		n.cfg.Logf("consensus %s: election for term %d", n.cfg.ID, term)
		peers := n.peers
		n.mu.Unlock()

		if len(peers) == 0 {
			n.mu.Lock()
			if n.role == candidate && n.term == term {
				n.becomeLeaderLocked()
			}
			n.mu.Unlock()
			continue
		}
		votes := 1 // self
		var vmu sync.Mutex
		for _, p := range peers {
			go func(p string) {
				ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeoutMin)
				defer cancel()
				var reply VoteReply
				if err := n.cfg.Transport.RequestVote(ctx, p, args, &reply); err != nil {
					return
				}
				n.mu.Lock()
				defer n.mu.Unlock()
				if reply.Term > n.term {
					n.becomeFollowerLocked(reply.Term, "")
					return
				}
				if n.role != candidate || n.term != term || !reply.Granted {
					return
				}
				vmu.Lock()
				votes++
				won := votes > len(n.cfg.Peers)/2
				vmu.Unlock()
				if won {
					n.becomeLeaderLocked()
				}
			}(p)
		}
	}
}

// becomeLeaderLocked transitions candidate→leader: init replication
// state and append a no-op so the previous terms' entries commit under
// this term's majority rule.
func (n *Node) becomeLeaderLocked() {
	if n.role == leader {
		return
	}
	n.role = leader
	n.leaderID = n.cfg.ID
	now := n.clk.Now()
	for _, p := range n.peers {
		n.nextIndex[p] = n.lastIndexLocked() + 1
		n.matchIndex[p] = 0
		n.contact[p] = now
	}
	noop := Entry{Index: n.lastIndexLocked() + 1, Term: n.term}
	n.log = append(n.log, noop)
	if n.persistEntriesLocked(noop) != nil {
		return
	}
	n.cfg.Logf("consensus %s: leader for term %d (log %d)", n.cfg.ID, n.term, n.lastIndexLocked())
	if len(n.peers) == 0 {
		n.advanceCommitLocked()
	}
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// becomeFollowerLocked steps down into newTerm (strictly newer terms
// only reach here).
func (n *Node) becomeFollowerLocked(newTerm uint64, leaderHint string) {
	n.term = newTerm
	n.role = follower
	n.votedFor = ""
	n.leaderID = leaderHint
	_ = n.persistMetaLocked() // a failure stops the node; callers check n.failed
	n.resetElectionTimerLocked()
}

func (n *Node) resetElectionTimerLocked() {
	n.lastReset = n.clk.Now()
	n.timeoutCur = n.randTimeout()
}

func (n *Node) randTimeout() time.Duration {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	return n.cfg.ElectionTimeoutMin + time.Duration(n.rng.Int63n(int64(span)))
}

// --- replication ---

// replicateLoop: while leader, push AppendEntries to every peer each
// heartbeat interval (sooner when kicked by a proposal).
func (n *Node) replicateLoop() {
	defer n.wg.Done()
	for {
		// Sleep a heartbeat, but wake early on kick or stop.
		woke := make(chan struct{})
		t := n.clk.AfterFunc(n.cfg.HeartbeatInterval, func() { close(woke) })
		select {
		case <-n.stopCh:
			t.Stop()
			return
		case <-n.kick:
			t.Stop()
		case <-woke:
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		if n.role != leader {
			n.mu.Unlock()
			continue
		}
		term := n.term
		n.mu.Unlock()
		for _, p := range n.peers {
			go n.replicateTo(p, term)
		}
	}
}

// replicateTo sends one AppendEntries to peer carrying everything from
// its nextIndex, processing the reply.
func (n *Node) replicateTo(peer string, term uint64) {
	n.mu.Lock()
	if n.role != leader || n.term != term {
		n.mu.Unlock()
		return
	}
	next := n.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	args := &AppendArgs{
		Term:         term,
		Leader:       n.cfg.ID,
		PrevLogIndex: next - 1,
		LeaderCommit: n.commitIndex,
	}
	if next > 1 {
		args.PrevLogTerm = n.log[next-2].Term
	}
	if last := n.lastIndexLocked(); last >= next {
		args.Entries = append([]Entry(nil), n.log[next-1:]...)
	}
	n.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.HeartbeatInterval*3)
	defer cancel()
	var reply AppendReply
	if err := n.cfg.Transport.AppendEntries(ctx, peer, args, &reply); err != nil {
		return
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if reply.Term > n.term {
		n.becomeFollowerLocked(reply.Term, "")
		return
	}
	if n.role != leader || n.term != term {
		return
	}
	n.contact[peer] = n.clk.Now()
	if reply.Success {
		m := args.PrevLogIndex + uint64(len(args.Entries))
		if m > n.matchIndex[peer] {
			n.matchIndex[peer] = m
		}
		if m+1 > n.nextIndex[peer] {
			n.nextIndex[peer] = m + 1
		}
		n.advanceCommitLocked()
		return
	}
	// Log mismatch: back up (using the follower's conflict hint) and let
	// the next heartbeat retry from there.
	if reply.ConflictIndex > 0 && reply.ConflictIndex < n.nextIndex[peer] {
		n.nextIndex[peer] = reply.ConflictIndex
	} else if n.nextIndex[peer] > 1 {
		n.nextIndex[peer]--
	}
}

// advanceCommitLocked moves commitIndex to the highest N with
// log[N].Term == currentTerm replicated on a majority (the figure-8
// rule: older-term entries commit only transitively).
func (n *Node) advanceCommitLocked() {
	for N := n.lastIndexLocked(); N > n.commitIndex; N-- {
		if n.log[N-1].Term != n.term {
			break // older term: cannot commit directly
		}
		count := 1 // self
		for _, p := range n.peers {
			if n.matchIndex[p] >= N {
				count++
			}
		}
		if count > len(n.cfg.Peers)/2 {
			n.commitIndex = N
			n.applyCond.Broadcast()
			return
		}
	}
}

// --- apply ---

// applyLoop feeds committed entries to the FSM in order and resolves
// proposal waiters. FSM.Apply runs without the node lock.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.lastApplied >= n.commitIndex && !n.closed {
			n.applyCond.Wait()
		}
		if n.closed {
			n.mu.Unlock()
			return
		}
		var batch []Entry
		for n.lastApplied < n.commitIndex {
			n.lastApplied++
			batch = append(batch, n.log[n.lastApplied-1])
		}
		n.mu.Unlock()
		for _, e := range batch {
			if e.Cmd != nil && n.cfg.FSM != nil {
				n.cfg.FSM.Apply(e)
			}
		}
		n.mu.Lock()
		for _, e := range batch {
			for _, ch := range n.waiters[e.Index] {
				ch <- waitResult{term: e.Term}
			}
			delete(n.waiters, e.Index)
		}
		n.mu.Unlock()
	}
}

// --- persistence + log helpers (callers hold n.mu) ---

// persistMetaLocked makes the current term and vote durable. A failure
// stops the node (failLocked) and is returned.
func (n *Node) persistMetaLocked() error {
	if n.wal == nil || n.failed != nil {
		return n.failed
	}
	if err := n.wal.saveMeta(n.term, n.votedFor); err != nil {
		return n.failLocked(fmt.Errorf("wal meta: %w", err))
	}
	return n.syncLocked()
}

// persistEntriesLocked makes es durable. A failure stops the node
// (failLocked) and is returned.
func (n *Node) persistEntriesLocked(es ...Entry) error {
	if n.wal == nil || n.failed != nil {
		return n.failed
	}
	for _, e := range es {
		if err := n.wal.appendEntry(e); err != nil {
			return n.failLocked(fmt.Errorf("wal entry %d: %w", e.Index, err))
		}
	}
	return n.syncLocked()
}

func (n *Node) syncLocked() error {
	if err := n.wal.sync(); err != nil {
		return n.failLocked(fmt.Errorf("wal sync: %w", err))
	}
	return nil
}

// failLocked stops the node after a WAL write or sync failed: from here on
// it grants no vote, acknowledges no append, does not campaign or lead, and
// every pending and later proposal fails with the returned error.
func (n *Node) failLocked(cause error) error {
	if n.failed == nil {
		n.failed = &walFailedError{cause: cause}
		n.cfg.Logf("consensus %s: %v", n.cfg.ID, n.failed)
		n.role = follower
		n.leaderID = ""
		for idx, chans := range n.waiters {
			for _, ch := range chans {
				ch <- waitResult{err: n.failed}
			}
			delete(n.waiters, idx)
		}
	}
	return n.failed
}

// truncateFromLocked discards log entries with Index >= from, failing
// any waiters parked on them (their slots were overwritten).
func (n *Node) truncateFromLocked(from uint64) {
	n.log = n.log[:from-1]
	if n.wal != nil && n.failed == nil {
		if err := n.wal.truncateFrom(from); err != nil {
			n.failLocked(fmt.Errorf("wal truncate: %w", err))
		}
	}
	for idx, chans := range n.waiters {
		if idx >= from {
			for _, ch := range chans {
				ch <- waitResult{err: ErrLost}
			}
			delete(n.waiters, idx)
		}
	}
}

func (n *Node) lastIndexLocked() uint64 { return uint64(len(n.log)) }

func (n *Node) lastTermLocked() uint64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
