package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"agl/internal/placement"
)

// reflatten simulates the net/rpc boundary: the server returns err.Error()
// as a plain string and the client wraps it in a fresh error value, so the
// only thing that survives is the tagged text.
func reflatten(err error) error {
	if err == nil {
		return nil
	}
	return errors.New(err.Error())
}

// errWireCases are the typed errors a routed read can return, each with
// the sentinel it must still match on the routing replica.
var errWireCases = []struct {
	name string
	in   error
	want error
}{
	{"unknown-node", fmt.Errorf("score: %w", ErrUnknownNode), ErrUnknownNode},
	{"no-edge-head", fmt.Errorf("link: %w", ErrNoEdgeHead), ErrNoEdgeHead},
	{"expired", fmt.Errorf("batch: %w", ErrExpired), ErrExpired},
	{"closed", ErrClosed, ErrClosed},
	{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
	{"canceled", fmt.Errorf("call: %w", context.Canceled), context.Canceled},
	{"stale-epoch", &placement.EpochError{Have: 3, Got: 1}, placement.ErrStaleEpoch},
}

// TestErrWireCodec: every typed serve error must survive the
// flatten-to-string RPC boundary so HTTP status mapping works on the
// routing replica exactly as it does on the owner.
func TestErrWireCodec(t *testing.T) {
	for _, tc := range errWireCases {
		t.Run(tc.name, func(t *testing.T) {
			got := errFromWire(reflatten(errToWire(tc.in)))
			if !errors.Is(got, tc.want) {
				t.Fatalf("decoded %v, want errors.Is(%v)", got, tc.want)
			}
		})
	}

	// ShedError carries fields, not just identity: RetryAfter/Pending/Limit
	// must cross the wire intact for the 429 Retry-After header.
	shed := &ShedError{RetryAfter: 250 * time.Millisecond, Pending: 9, Limit: 8}
	got := errFromWire(reflatten(errToWire(fmt.Errorf("admission: %w", shed))))
	var back *ShedError
	if !errors.As(got, &back) {
		t.Fatalf("decoded %v, want *ShedError", got)
	}
	if back.RetryAfter != shed.RetryAfter || back.Pending != shed.Pending || back.Limit != shed.Limit {
		t.Fatalf("shed fields lost: %+v want %+v", back, shed)
	}
	if !errors.Is(got, ErrOverloaded) {
		t.Fatal("decoded shed error does not unwrap to ErrOverloaded")
	}

	// Untyped errors pass through as opaque text; a mangled shed payload
	// degrades to the raw error instead of a zero-valued ShedError.
	if errFromWire(nil) != nil || errToWire(nil) != nil {
		t.Fatal("nil must stay nil across the codec")
	}
	plain := errFromWire(reflatten(errToWire(errors.New("disk on fire"))))
	if plain == nil || plain.Error() == "" {
		t.Fatal("plain error lost its message")
	}
	mangled := errFromWire(errors.New(wireShed + "not-a-number:x:y: boom"))
	if errors.As(mangled, &back) {
		t.Fatal("mangled shed payload decoded to a typed ShedError")
	}
	// A tag quoted inside a message is not a tag (FuzzErrFromWire's find).
	quoted := errFromWire(reflatten(errToWire(fmt.Errorf(wireShed+"1:2:3: quoted: %w", ErrUnknownNode))))
	if !errors.Is(quoted, ErrUnknownNode) || errors.As(quoted, &back) {
		t.Fatalf("unknown-node error quoting a shed tag decoded to %v", quoted)
	}
}

// FuzzErrFromWire: per-id errors cross the wire as text inside a bulk
// reply, so the decoder sees whatever a peer sends. It must never panic,
// and every typed error must come back errors.Is/As-equal whatever message
// it was wrapped in and whatever its fields hold.
func FuzzErrFromWire(f *testing.F) {
	for _, tc := range errWireCases {
		f.Add(errToWire(tc.in).Error(), int64(3), int64(1), int64(0))
	}
	f.Add(errToWire(&ShedError{RetryAfter: 250 * time.Millisecond, Pending: 9, Limit: 8}).Error(), int64(250e6), int64(9), int64(8))
	f.Add(wireShed+"not-a-number:x:y: boom", int64(-1), int64(1)<<62, int64(-1)<<63)
	f.Add("disk on fire", int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, text string, a, b, c int64) {
		if errFromWire(errors.New(text)) == nil {
			t.Fatalf("text %q decoded to nil", text)
		}
		for _, tc := range errWireCases {
			got := errFromWire(reflatten(errToWire(fmt.Errorf("%s: %w", text, tc.in))))
			if !errors.Is(got, tc.want) {
				t.Fatalf("%s wrapped in %q decoded to %v", tc.name, text, got)
			}
		}
		shed := &ShedError{RetryAfter: time.Duration(a), Pending: int(b), Limit: int(c)}
		var gotShed *ShedError
		if got := errFromWire(reflatten(errToWire(fmt.Errorf("%s: %w", text, shed)))); !errors.As(got, &gotShed) || *gotShed != *shed {
			t.Fatalf("%+v wrapped in %q decoded to %v", shed, text, got)
		}
		epoch := &placement.EpochError{Have: uint64(a), Got: uint64(b)}
		var gotEpoch *placement.EpochError
		if got := errFromWire(reflatten(errToWire(fmt.Errorf("%s: %w", text, epoch)))); !errors.As(got, &gotEpoch) || *gotEpoch != *epoch {
			t.Fatalf("%+v wrapped in %q decoded to %v", epoch, text, got)
		}
	})
}

// TestEpochBounceResyncsTables: a routed call that hits an epoch fence
// must heal the divergence in both directions — fetch the peer's table
// when the peer is ahead, push ours when the peer is behind — and then
// succeed on the retry, invisibly to the caller.
func TestEpochBounceResyncsTables(t *testing.T) {
	cl := buildCluster(t, 2)
	ctx := context.Background()

	// A probe owned by replica 1 at every epoch in this test (only slot
	// `moved` changes hands below).
	t1 := cl.reps[0].Table()
	var probe int64 = -1
	moved := -1
	for s := 0; s < testClusterSlots && moved < 0; s++ {
		if t1.Owner(s) == 0 {
			moved = s
		}
	}
	for _, n := range cl.g.Nodes {
		if s := placement.SlotOf(n.ID, testClusterSlots); t1.Owner(s) == 1 && s != moved {
			probe = n.ID
			break
		}
	}
	if probe < 0 {
		t.Fatal("no probe node owned by replica 1")
	}
	want, err := cl.ref.Score(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}

	// Peer ahead: replica 1 has adopted epoch 2, replica 0 still routes
	// with epoch 1. The bounce must fetch the newer table.
	t2, err := t1.WithOwner(moved, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.reps[1].adoptTable(t2); err != nil {
		t.Fatal(err)
	}
	got, err := cl.reps[0].Score(ctx, probe)
	if err != nil {
		t.Fatalf("routed score after peer-ahead bounce: %v", err)
	}
	if !scoresEqual(got, want) {
		t.Fatalf("score diverged through epoch bounce: %v want %v", got, want)
	}
	if e := cl.reps[0].Table().Epoch; e != t2.Epoch {
		t.Fatalf("caller did not adopt the fetched table: epoch %d want %d", e, t2.Epoch)
	}

	// Peer behind: replica 0 moves on to epoch 3 alone. The bounce must
	// push the newer table down to replica 1.
	t3, err := t2.WithOwner(moved, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.reps[0].adoptTable(t3); err != nil {
		t.Fatal(err)
	}
	got, err = cl.reps[0].Score(ctx, probe)
	if err != nil {
		t.Fatalf("routed score after peer-behind bounce: %v", err)
	}
	if !scoresEqual(got, want) {
		t.Fatalf("score diverged through epoch push: %v want %v", got, want)
	}
	if e := cl.reps[1].Table().Epoch; e != t3.Epoch {
		t.Fatalf("peer did not accept the pushed table: epoch %d want %d", e, t3.Epoch)
	}
	if cl.reps[0].ClusterStats().EpochRejects == 0 {
		t.Fatal("epoch bounces left no trace in ClusterStats")
	}
}

// idsOwnedBy returns up to n graph node ids that owner serves under table.
func idsOwnedBy(cl *cluster, table *placement.Table, owner, n int) []int64 {
	var ids []int64
	for _, node := range cl.g.Nodes {
		if len(ids) < n && table.OwnerOf(node.ID) == owner {
			ids = append(ids, node.ID)
		}
	}
	return ids
}

// TestReplicaScoreManyRouted is the differential suite of the routed bulk
// read: whatever mix of owners, unknown ids, shed ids and epoch bounces a
// bulk meets, every position carries the owner's answer or the owner's
// typed error, and the bulk costs one call per owning peer.
func TestReplicaScoreManyRouted(t *testing.T) {
	ctx := context.Background()

	t.Run("positions and typed errors", func(t *testing.T) {
		cl := buildCluster(t, 3)
		entry := cl.reps[2]
		if entry.ID() != 2 {
			t.Fatalf("ID() = %d want 2", entry.ID())
		}
		table := entry.Table()
		var ids []int64
		for owner := 0; owner < 3; owner++ {
			ids = append(ids, idsOwnedBy(cl, table, owner, 6)...)
		}
		// In the middle of the bulk: an id nobody knows, owned by peer 1,
		// and a cold id on peer 0 while peer 0's cold path is saturated.
		missing := int64(20_000_000)
		for table.OwnerOf(missing) != 1 {
			missing++
		}
		shedID := idsOwnedBy(cl, table, 0, 7)[6]
		peer0 := cl.reps[0].Server()
		peer0.DropRows(func(id int64) bool { return id == shedID })
		limit := 0
		for peer0.adm.admit() == nil {
			limit++
		}
		defer func() {
			for ; limit > 0; limit-- {
				peer0.adm.release()
			}
		}()
		mid := len(ids) / 2
		ids = append(ids[:mid:mid], append([]int64{missing, shedID}, ids[mid:]...)...)

		scores, errs := entry.ScoreMany(ctx, ids)
		want, _ := cl.ref.ScoreMany(ctx, ids)
		if len(scores) != len(ids) || len(errs) != len(ids) {
			t.Fatalf("positional contract broken: %d/%d results for %d ids", len(scores), len(errs), len(ids))
		}
		for i, id := range ids {
			switch id {
			case missing:
				if !errors.Is(errs[i], ErrUnknownNode) {
					t.Fatalf("missing id at %d: %v, want ErrUnknownNode", i, errs[i])
				}
			case shedID:
				var shed *ShedError
				if !errors.As(errs[i], &shed) || !errors.Is(errs[i], ErrOverloaded) {
					t.Fatalf("shed id at %d: %v, want *ShedError", i, errs[i])
				}
				if shed.Limit != limit || shed.Pending != limit || shed.RetryAfter <= 0 {
					t.Fatalf("shed fields lost on the wire: %+v, limit %d", shed, limit)
				}
			default:
				if errs[i] != nil {
					t.Fatalf("node %d at %d: %v", id, i, errs[i])
				}
				if !scoresEqual(scores[i], want[i]) {
					t.Fatalf("node %d at %d: routed %v, reference %v", id, i, scores[i], want[i])
				}
			}
		}
	})

	t.Run("one call and at most one dial per owner", func(t *testing.T) {
		cl := buildCluster(t, 3)
		entry := cl.reps[0]
		table := entry.Table()
		ids := append(idsOwnedBy(cl, table, 1, 13), idsOwnedBy(cl, table, 2, 13)...)
		ids = append(ids, idsOwnedBy(cl, table, 0, 6)...)
		if len(ids) != 32 {
			t.Fatalf("fixture gave %d ids, want 32", len(ids))
		}
		want, _ := cl.ref.ScoreMany(ctx, ids)
		for round := 0; round < 2; round++ {
			forwards := entry.ClusterStats().Forwards
			dials := []int64{0, entry.peerClient(1).Dials(), entry.peerClient(2).Dials()}
			scores, errs := entry.ScoreMany(ctx, ids)
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				if !scoresEqual(scores[i], want[i]) {
					t.Fatalf("node %d: routed %v, reference %v", ids[i], scores[i], want[i])
				}
			}
			if d := entry.ClusterStats().Forwards - forwards; d != 2 {
				t.Fatalf("round %d: bulk of 32 over two remote owners made %d peer calls, want 2", round, d)
			}
			for peer := 1; peer <= 2; peer++ {
				if d := entry.peerClient(peer).Dials() - dials[peer]; d > 1-int64(round) {
					t.Fatalf("round %d: %d dials to peer %d", round, d, peer)
				}
			}
		}
	})

	t.Run("epoch bounce re-routes only the bounced group", func(t *testing.T) {
		cl := buildCluster(t, 3)
		entry := cl.reps[0]
		t1 := entry.Table()
		// Peer 1 alone learns that a slot moved from peer 2 to it: the
		// entry's call to peer 1 bounces off the fence, the one to peer 2
		// (still at the entry's epoch) is served.
		t2, err := t1.WithOwner(t1.SlotsOf(2)[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.reps[1].adoptTable(t2); err != nil {
			t.Fatal(err)
		}
		groups := [][]int64{idsOwnedBy(cl, t1, 0, 5), idsOwnedBy(cl, t1, 1, 9), idsOwnedBy(cl, t1, 2, 7)}
		var ids []int64
		for k := 0; k < 9; k++ { // interleave the owners
			for _, g := range groups {
				if k < len(g) {
					ids = append(ids, g[k])
				}
			}
		}
		var before [3]Stats
		for i, r := range cl.reps {
			before[i] = r.Server().Stats()
		}
		cs := entry.ClusterStats()

		scores, errs := entry.ScoreMany(ctx, ids)
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		want, _ := cl.ref.ScoreMany(ctx, ids)
		for i := range ids {
			if !scoresEqual(scores[i], want[i]) {
				t.Fatalf("node %d at %d: routed %v, reference %v", ids[i], i, scores[i], want[i])
			}
		}
		after := entry.ClusterStats()
		if after.Epoch != t2.Epoch || after.EpochRejects-cs.EpochRejects != 1 || after.Forwards-cs.Forwards != 3 {
			t.Fatalf("one bounce should cost one reject and one extra call: %+v -> %+v", cs, after)
		}
		for i, r := range cl.reps {
			if d := r.Server().Stats().Requests - before[i].Requests; d != int64(len(groups[i])) {
				t.Fatalf("replica %d scored %d ids for a group of %d", i, d, len(groups[i]))
			}
		}
	})

	t.Run("link endpoints on one peer cost one hop", func(t *testing.T) {
		cl := buildCluster(t, 3)
		entry := cl.reps[0]
		pair := idsOwnedBy(cl, entry.Table(), 1, 2)
		want, err := cl.ref.ScoreLink(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		forwards := entry.ClusterStats().Forwards
		got, err := entry.ScoreLink(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("link(%d,%d) = %v, reference %v", pair[0], pair[1], got, want)
		}
		if d := entry.ClusterStats().Forwards - forwards; d != 1 {
			t.Fatalf("both endpoints on peer 1 made %d peer calls, want 1", d)
		}
	})

	t.Run("empty and duplicated", func(t *testing.T) {
		cl := buildCluster(t, 2)
		entry := cl.reps[0]
		scores, errs := entry.ScoreMany(ctx, nil)
		if len(scores) != 0 || len(errs) != 0 || entry.ClusterStats().Forwards != 0 {
			t.Fatalf("empty bulk: %d scores, %d errors, %d peer calls", len(scores), len(errs), entry.ClusterStats().Forwards)
		}
		// The same cold id twice: its owner computes it once.
		dup := idsOwnedBy(cl, entry.Table(), 1, 1)[0]
		owner := cl.reps[1].Server()
		owner.DropRows(func(id int64) bool { return id == dup })
		scores, errs = entry.ScoreMany(ctx, []int64{dup, dup})
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if st := owner.Stats(); st.Cold != 1 || st.Collapsed+st.CacheHits != 1 || !scoresEqual(scores[0], scores[1]) {
			t.Fatalf("duplicate cold id: %v and %v, owner stats %+v", scores[0], scores[1], st)
		}
	})
}
