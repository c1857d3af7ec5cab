package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// LogEntry is one committed mutation batch: the applied mutations (invalid
// ones already filtered out) and the version the graph reached after them.
type LogEntry struct {
	Version uint64     `json:"version"`
	Muts    []Mutation `json:"muts"`
}

// Versioned is a mutable graph handle built from immutable snapshots: a
// current *Graph swapped atomically on every Apply, a monotonically
// increasing version, and a bounded log of recent mutation batches.
// Readers take a snapshot and keep a fully consistent view no matter how
// many mutations land afterwards (row-level copy-on-write, see
// Graph.Apply); consumers that maintain derived state (caches, sampled
// rows) catch up either by receiving Apply's return values or by replaying
// Since(version). A batch costs Graph.Apply plus one log entry.
//
// Snapshot and Version are safe for any number of concurrent readers;
// Apply is safe for concurrent writers (serialized internally).
type Versioned struct {
	mu     sync.Mutex // serializes Apply and log access
	cur    atomic.Pointer[Graph]
	ver    atomic.Uint64
	log    []LogEntry
	logCap int
}

// DefaultLogCap bounds the retained mutation log (in batches) when
// NewVersioned is given no explicit capacity.
const DefaultLogCap = 1024

// NewVersioned wraps g (version 0) with the default log capacity.
func NewVersioned(g *Graph) *Versioned {
	return NewVersionedCap(g, DefaultLogCap)
}

// NewVersionedCap wraps g with a mutation log retaining at most logCap
// batches (<= 0 disables the log).
func NewVersionedCap(g *Graph, logCap int) *Versioned {
	v := &Versioned{logCap: logCap}
	v.cur.Store(g)
	return v
}

// Snapshot returns the current graph and its version. The graph is
// immutable; it remains valid and internally consistent forever.
func (v *Versioned) Snapshot() (*Graph, uint64) {
	// Load version first: a concurrent Apply publishes the graph before
	// the version, so the pair can only be (new graph, old version) —
	// never a version claiming mutations the graph does not contain.
	ver := v.ver.Load()
	return v.cur.Load(), ver
}

// Version returns the current version without loading the graph.
func (v *Versioned) Version() uint64 { return v.ver.Load() }

// Apply commits a mutation batch: valid mutations apply in order on a
// copy-on-write successor graph, invalid ones are reported positionally
// (see Graph.Apply). It returns the new snapshot and its version; when no
// mutation applied the graph and version are unchanged. The log keeps its
// own copy of the applied mutations, so the caller may reuse muts.
func (v *Versioned) Apply(muts []Mutation) (*Graph, uint64, []error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.cur.Load()
	next, errs := cur.Apply(muts)
	if next == cur { // nothing applied
		return cur, v.ver.Load(), errs
	}
	v.cur.Store(next)
	ver := v.ver.Add(1)
	if v.logCap > 0 {
		applied := make([]Mutation, 0, len(muts))
		for i, m := range muts {
			if errs[i] == nil {
				m.Feat = slices.Clone(m.Feat)
				applied = append(applied, m)
			}
		}
		// A sliding window: re-slicing drops the oldest entry, and append
		// copies the live ones only when the array runs out — O(1) amortized.
		v.log = append(v.log, LogEntry{Version: ver, Muts: applied})
		if len(v.log) > v.logCap {
			v.log[0] = LogEntry{}
			v.log = v.log[1:]
		}
	}
	return next, ver, errs
}

// Since returns every logged batch with Version > version, oldest first.
// ok is false when the log has been trimmed past the requested version
// (or logging is disabled) and the caller cannot catch up incrementally —
// rebuild from a fresh Snapshot instead.
func (v *Versioned) Since(version uint64) (entries []LogEntry, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.ver.Load()
	if version >= cur {
		return nil, true
	}
	// The log holds batches (oldest+1 .. cur); catching up from `version`
	// needs every batch starting at version+1.
	if v.logCap <= 0 || len(v.log) == 0 || v.log[0].Version > version+1 {
		return nil, false
	}
	for _, e := range v.log {
		if e.Version > version {
			entries = append(entries, e)
		}
	}
	return entries, true
}
