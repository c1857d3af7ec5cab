package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"

	"agl/internal/tensor"
)

// Sentinel errors for mutation application. Callers distinguish client
// mistakes (unknown ids, duplicates) from internal failures with errors.Is.
var (
	// ErrUnknownNode marks a mutation referencing a node absent from the graph.
	ErrUnknownNode = errors.New("graph: unknown node")
	// ErrUnknownEdge marks a RemoveEdge for an edge that does not exist.
	ErrUnknownEdge = errors.New("graph: unknown edge")
	// ErrDuplicateNode marks an AddNode whose id already exists.
	ErrDuplicateNode = errors.New("graph: duplicate node")
	// ErrBadMutation marks a structurally invalid mutation (self loop,
	// feature-dimension mismatch, unknown op).
	ErrBadMutation = errors.New("graph: bad mutation")
)

// MutOp enumerates the graph mutation operations.
type MutOp uint8

// Mutation operations. RemoveNode is deliberately absent: dense node
// indices stay stable across every mutation, which is what lets the
// adjacency rows and what is derived from them (LocalFlattener's sampled
// rows) be addressed by index and replaced row by row.
const (
	OpAddNode MutOp = iota + 1
	OpAddEdge
	OpRemoveEdge
	OpUpdateNodeFeat
)

// opNames is the wire name of every operation, the one table String and
// ParseMutOp both read.
var opNames = map[MutOp]string{
	OpAddNode: "add_node", OpAddEdge: "add_edge", OpRemoveEdge: "remove_edge", OpUpdateNodeFeat: "update_feat",
}

// String returns the wire name of the operation.
func (op MutOp) String() string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ParseMutOp parses the wire name of a mutation operation.
func ParseMutOp(s string) (MutOp, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown op %q", ErrBadMutation, s)
}

// Mutation is one streamed graph change. AddNode and UpdateNodeFeat use
// ID + Feat; AddEdge uses Src/Dst/Weight/Feat; RemoveEdge uses Src/Dst.
type Mutation struct {
	Op MutOp

	ID   int64     // AddNode, UpdateNodeFeat
	Feat []float64 // AddNode, UpdateNodeFeat (node features); AddEdge (edge features)

	Src, Dst int64   // AddEdge, RemoveEdge
	Weight   float64 // AddEdge (0 means 1, matching Build)
}

// Convenience constructors.

// AddNode inserts a new isolated node.
func AddNode(id int64, feat []float64) Mutation {
	return Mutation{Op: OpAddNode, ID: id, Feat: feat}
}

// AddEdge inserts a directed edge; inserting an existing (src, dst) pair
// merges weights, the same contract as Build.
func AddEdge(src, dst int64, weight float64) Mutation {
	return Mutation{Op: OpAddEdge, Src: src, Dst: dst, Weight: weight}
}

// RemoveEdge deletes the directed edge (src, dst).
func RemoveEdge(src, dst int64) Mutation {
	return Mutation{Op: OpRemoveEdge, Src: src, Dst: dst}
}

// UpdateNodeFeat replaces a node's feature vector.
func UpdateNodeFeat(id int64, feat []float64) Mutation {
	return Mutation{Op: OpUpdateNodeFeat, ID: id, Feat: feat}
}

// mutationJSON is the wire form of a Mutation (POST /update and the
// mutation log's serialized shape).
type mutationJSON struct {
	Op string `json:"op"`
	// Identity fields carry no omitempty: 0 is a legitimate node id and
	// must stay visible on the wire (the catch-up feed in particular).
	ID     int64     `json:"id"`
	Feat   []float64 `json:"feat,omitempty"`
	Src    int64     `json:"src"`
	Dst    int64     `json:"dst"`
	Weight float64   `json:"weight,omitempty"`
	// Quantized feature payload (the ?codec=q8 feed form, see
	// mutation_q8.go): base64 int8 bytes plus the affine pair. Mutually
	// exclusive with Feat; q8 wins when both are present.
	FeatQ8    []byte  `json:"feat_q8,omitempty"`
	FeatScale float32 `json:"feat_scale,omitempty"`
	FeatZero  float32 `json:"feat_zero,omitempty"`
}

// MarshalJSON encodes the mutation with a string op name.
func (m Mutation) MarshalJSON() ([]byte, error) {
	return json.Marshal(mutationJSON{
		Op: m.Op.String(), ID: m.ID, Feat: m.Feat,
		Src: m.Src, Dst: m.Dst, Weight: m.Weight,
	})
}

// UnmarshalJSON decodes a mutation encoded by MarshalJSON or by the q8
// feed form (feat_q8/feat_scale/feat_zero), which dequantizes here so
// every consumer of the wire type handles both transparently.
func (m *Mutation) UnmarshalJSON(b []byte) error {
	var w mutationJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	op, err := ParseMutOp(w.Op)
	if err != nil {
		return err
	}
	feat := w.Feat
	if len(w.FeatQ8) > 0 {
		feat = tensor.Dequantize(nil, w.FeatQ8, w.FeatScale, w.FeatZero)
	}
	*m = Mutation{Op: op, ID: w.ID, Feat: feat, Src: w.Src, Dst: w.Dst, Weight: w.Weight}
	return nil
}

// Apply returns a new graph with the batch's valid mutations applied and a
// positional error slice (nil entry = applied). Invalid mutations are
// skipped; the rest apply in order, so an AddNode can be referenced by a
// later AddEdge in the same batch. When nothing applies, the receiver is
// returned unchanged.
//
// Apply is copy-on-write at row granularity: the receiver is never
// modified, a snapshot held by an in-flight reader stays internally
// consistent forever, and two successors of one parent are independent.
// A batch pays one flat copy of the three spines (Nodes, in-rows, out-rows:
// N headers each) plus, per mutation: an edge mutation scans its
// destination's in-row for the (src, dst) pair and replaces that in-row and
// the source's out-row with edited copies; UpdateNodeFeat replaces one node
// entry; AddNode appends a node and two empty rows, and the first one of a
// batch copies the id index (a map: O(N)). Nothing is O(E). Feature
// payloads are copied, so the caller may reuse muts. Dense node indices are
// stable: new nodes append, existing nodes never move. The successor's
// Edges field is nil (see Graph).
func (g *Graph) Apply(muts []Mutation) (*Graph, []error) {
	errs := make([]error, len(muts))
	if len(muts) == 0 {
		return g, errs
	}

	// The spines and the id index are the receiver's until the batch first
	// writes: own copies the spines, the first AddNode copies the index.
	nodes, index := g.Nodes, g.index
	in, out := g.rows()
	owned, ownIndex := false, false
	own := func() {
		if !owned {
			nodes, in, out, owned = slices.Clone(nodes), slices.Clone(in), slices.Clone(out), true
		}
	}
	featDim := g.FeatureDim()
	numEdges := g.numEdges

	for i, m := range muts {
		switch m.Op {
		case OpAddNode:
			if _, dup := index[m.ID]; dup {
				errs[i] = fmt.Errorf("add_node %d: %w", m.ID, ErrDuplicateNode)
				continue
			}
			if len(nodes) > 0 && len(m.Feat) != featDim {
				errs[i] = fmt.Errorf("add_node %d: feat dim %d, graph has %d: %w",
					m.ID, len(m.Feat), featDim, ErrBadMutation)
				continue
			}
			if !ownIndex {
				cp := make(map[int64]int, len(index)+4)
				maps.Copy(cp, index)
				index, ownIndex = cp, true
			}
			own()
			index[m.ID] = len(nodes)
			nodes = append(nodes, Node{ID: m.ID, Feat: slices.Clone(m.Feat)})
			in, out = append(in, nil), append(out, nil)
			if len(nodes) == 1 {
				featDim = len(m.Feat)
			}
		case OpUpdateNodeFeat:
			j, ok := index[m.ID]
			if !ok {
				errs[i] = fmt.Errorf("update_feat %d: %w", m.ID, ErrUnknownNode)
				continue
			}
			if len(m.Feat) != featDim {
				errs[i] = fmt.Errorf("update_feat %d: feat dim %d, graph has %d: %w",
					m.ID, len(m.Feat), featDim, ErrBadMutation)
				continue
			}
			own()
			// Replace the Feat pointer; the old snapshot keeps the old slice.
			nodes[j].Feat = slices.Clone(m.Feat)
		case OpAddEdge:
			if m.Src == m.Dst {
				errs[i] = fmt.Errorf("add_edge %d->%d: self loop: %w", m.Src, m.Dst, ErrBadMutation)
				continue
			}
			si, ok := index[m.Src]
			if !ok {
				errs[i] = fmt.Errorf("add_edge %d->%d: source: %w", m.Src, m.Dst, ErrUnknownNode)
				continue
			}
			di, ok := index[m.Dst]
			if !ok {
				errs[i] = fmt.Errorf("add_edge %d->%d: destination: %w", m.Src, m.Dst, ErrUnknownNode)
				continue
			}
			w := m.Weight
			if w == 0 {
				w = 1
			}
			own()
			if at := inRowIndex(in[di], si); at >= 0 {
				// Duplicate (src, dst): merge, as Build does.
				in[di] = slices.Clone(in[di])
				in[di][at].Weight += w
			} else {
				in[di] = append(slices.Clip(in[di]), InEdge{Src: int32(si), Weight: w, Feat: slices.Clone(m.Feat)})
				out[si] = append(slices.Clip(out[si]), int32(di))
				numEdges++
			}
		case OpRemoveEdge:
			si, okSrc := index[m.Src]
			di, okDst := index[m.Dst]
			at := -1
			if okSrc && okDst {
				at = inRowIndex(in[di], si)
			}
			if at < 0 {
				errs[i] = fmt.Errorf("remove_edge %d->%d: %w", m.Src, m.Dst, ErrUnknownEdge)
				continue
			}
			own()
			in[di] = slices.Delete(slices.Clone(in[di]), at, at+1)
			o := slices.Index(out[si], int32(di))
			out[si] = slices.Delete(slices.Clone(out[si]), o, o+1)
			numEdges--
		default:
			errs[i] = fmt.Errorf("op %d: %w", m.Op, ErrBadMutation)
		}
	}

	if !owned {
		return g, errs
	}
	return &Graph{Nodes: nodes, index: index, in: in, out: out, numEdges: numEdges}, errs
}

// inRowIndex returns the position of the in-edge from dense index src in
// row, or -1.
func inRowIndex(row []InEdge, src int) int {
	return slices.IndexFunc(row, func(e InEdge) bool { return int(e.Src) == src })
}
