// Package placement is the cluster's slot-ownership layer: node ids hash
// into a fixed number of slots, and a versioned Table maps every slot to
// the replica that owns its embedding-store rows and serves its requests.
//
// The table is a total function at every epoch — every slot has exactly
// one owner — and every membership or migration change produces a NEW
// table with the epoch bumped. Routers and replicas fence on the epoch:
// an internal request stamped with a different epoch than the callee's is
// rejected with a typed, retryable *EpochError, and the caller refetches
// the table and re-routes. That fence is what makes a live slot migration
// safe: the moment the new table lands on the destination, requests routed
// under the old table bounce instead of being answered from moved state.
//
// This PR ships the static/file-based variant of the table (seeded evenly
// over the boot-time peer list, mutated only by the migration protocol in
// internal/serve); a consensus-backed table that survives coordinator
// failure is the ROADMAP follow-on.
package placement

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// DefaultSlots is the slot count used when a configuration passes 0. 256
// slots over single-digit replica counts keeps migration granularity fine
// (one slot moves ~0.4% of the keyspace) while the table stays one cache
// line of owners.
const DefaultSlots = 256

// SlotOf maps a node id to its hash slot via Fibonacci hashing — cheap,
// and well-mixed even for the sequential ids synthetic datasets produce.
// Every router and replica must agree on this function.
func SlotOf(id int64, slots int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(slots))
}

// ErrStaleEpoch is the sentinel wrapped by every *EpochError; callers can
// errors.Is(err, ErrStaleEpoch) without caring about the epoch pair.
var ErrStaleEpoch = errors.New("placement: stale epoch")

// EpochError reports an epoch fence rejection: a request stamped with
// epoch Got reached a participant at epoch Have. It is retryable by
// construction — refetch the table (the side with the higher epoch has
// it) and re-route.
type EpochError struct {
	Have uint64 // the rejecting participant's epoch
	Got  uint64 // the epoch stamped on the request
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("placement: stale epoch (request %d, table %d)", e.Got, e.Have)
}

func (e *EpochError) Unwrap() error { return ErrStaleEpoch }

// Retryable marks the error as safe to retry after refreshing the table.
func (e *EpochError) Retryable() bool { return true }

// epochErrPrefix is the wire form of an EpochError carried across an RPC
// boundary, where typed errors flatten to strings. EncodeError/DecodeError
// round-trip it.
const epochErrPrefix = "placement/stale-epoch:"

// EncodeError flattens an *EpochError into a string form that survives
// net/rpc's error transport; other errors pass through unchanged.
func EncodeError(err error) error {
	var ee *EpochError
	if errors.As(err, &ee) {
		return fmt.Errorf("%s%d:%d", epochErrPrefix, ee.Have, ee.Got)
	}
	return err
}

// DecodeError re-types an error that crossed an RPC boundary: strings
// produced by EncodeError become *EpochError again, everything else is
// returned unchanged.
func DecodeError(err error) error {
	if err == nil {
		return nil
	}
	s := err.Error()
	i := strings.Index(s, epochErrPrefix)
	if i < 0 {
		return err
	}
	var have, got uint64
	if _, serr := fmt.Sscanf(s[i+len(epochErrPrefix):], "%d:%d", &have, &got); serr != nil {
		return err
	}
	return &EpochError{Have: have, Got: got}
}

// Table is one immutable epoch of the slot-ownership map. Mutate by
// deriving a successor with WithOwner (epoch bumps); never in place.
type Table struct {
	// Epoch versions the table; every derived table increments it.
	Epoch uint64 `json:"epoch"`
	// Replicas lists the cluster's internal RPC addresses; a slot owner is
	// an index into this list.
	Replicas []string `json:"replicas"`
	// Owners maps slot -> replica index; len(Owners) is the slot count.
	Owners []int32 `json:"owners"`
}

// Even builds the boot-time table: slots dealt round-robin over the
// replicas, epoch 1. slots <= 0 selects DefaultSlots.
func Even(replicas []string, slots int) (*Table, error) {
	if slots <= 0 {
		slots = DefaultSlots
	}
	t := &Table{Epoch: 1, Replicas: append([]string(nil), replicas...), Owners: make([]int32, slots)}
	for s := range t.Owners {
		t.Owners[s] = int32(s % max(len(replicas), 1))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate rejects tables under which ownership is not a total function:
// no replicas, no slots, or any slot owned by an out-of-range replica.
func (t *Table) Validate() error {
	if t == nil {
		return errors.New("placement: nil table")
	}
	if len(t.Replicas) == 0 {
		return errors.New("placement: table has no replicas")
	}
	if len(t.Owners) == 0 {
		return errors.New("placement: table has no slots")
	}
	if t.Epoch == 0 {
		return errors.New("placement: table epoch 0 (tables start at 1)")
	}
	for s, r := range t.Owners {
		if r < 0 || int(r) >= len(t.Replicas) {
			return fmt.Errorf("placement: slot %d owned by replica %d, want [0,%d)",
				s, r, len(t.Replicas))
		}
	}
	return nil
}

// Slots returns the slot count.
func (t *Table) Slots() int { return len(t.Owners) }

// Owner returns the replica index owning slot.
func (t *Table) Owner(slot int) int { return int(t.Owners[slot]) }

// OwnerOf returns the replica index owning id's slot.
func (t *Table) OwnerOf(id int64) int { return int(t.Owners[SlotOf(id, len(t.Owners))]) }

// Owns reports whether replica owns id's slot under this table.
func (t *Table) Owns(replica int, id int64) bool { return t.OwnerOf(id) == replica }

// SlotsOf returns the slots owned by replica, ascending.
func (t *Table) SlotsOf(replica int) []int {
	var out []int
	for s, r := range t.Owners {
		if int(r) == replica {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns a deep copy of the table at the same epoch.
func (t *Table) Clone() *Table {
	return &Table{
		Epoch:    t.Epoch,
		Replicas: append([]string(nil), t.Replicas...),
		Owners:   append([]int32(nil), t.Owners...),
	}
}

// WithOwner derives the successor table in which slot is owned by replica:
// a deep copy with the epoch incremented. The receiver is unchanged.
func (t *Table) WithOwner(slot, replica int) (*Table, error) {
	if slot < 0 || slot >= len(t.Owners) {
		return nil, fmt.Errorf("placement: slot %d out of range [0,%d)", slot, len(t.Owners))
	}
	if replica < 0 || replica >= len(t.Replicas) {
		return nil, fmt.Errorf("placement: replica %d out of range [0,%d)", replica, len(t.Replicas))
	}
	nt := t.Clone()
	nt.Epoch++
	nt.Owners[slot] = int32(replica)
	return nt, nil
}

// WriteTo serializes the table as JSON (the on-disk and HTTP wire form).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(append(b, '\n'))
	return int64(n), err
}

// Read deserializes and validates a table written by WriteTo.
func Read(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("placement: decode table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// ReadFile loads and validates a table file written by WriteTo.
func ReadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
