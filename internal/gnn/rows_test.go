package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// poisonedWorkspace returns a workspace whose free list holds count NaN-
// filled buffers of rows×cols values, so every GetUninit hands out NaN
// where the consumer does not write.
func poisonedWorkspace(count, rows, cols int) *tensor.Workspace {
	ws := tensor.NewWorkspace()
	for i := 0; i < count; i++ {
		ws.GetUninit(rows, cols).Fill(math.NaN())
	}
	ws.Reset()
	return ws
}

// poisonRows returns a copy of m with every row not in rows set to NaN
// (m itself when rows is nil: every row is listed).
func poisonRows(ws *tensor.Workspace, m *tensor.Matrix, rows []int) *tensor.Matrix {
	if rows == nil {
		return m
	}
	out := ws.GetUninit(m.Rows, m.Cols)
	out.Fill(math.NaN())
	for _, r := range rows {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// TestPrunedRowsNeverReadUnlistedRows runs one pruned training step twice:
// once with every row listed, and once with the layers' row lists while
// every row a layer is not given is NaN — in its input, in its incoming
// gradient and in every uninitialized workspace buffer it draws. Target
// logits and every parameter gradient must be equal (==; a NaN that leaked
// would compare unequal), and equal to the unpruned step's as well; every
// input gradient must be zero off its layer's In rows.
func TestPrunedRowsNeverReadUnlistedRows(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"gcn", Config{Kind: KindGCN}},
		{"sage", Config{Kind: KindSAGE}},
		{"gat_edge", Config{Kind: KindGAT, Heads: 2, EdgeDim: 3}},
		{"gin", Config{Kind: KindGIN}},
	}
	for _, c := range cases {
		for _, layers := range []int{2, 3} {
			cfg := c.cfg
			cfg.InDim, cfg.Hidden, cfg.Classes, cfg.Layers = 5, 6, 2, layers
			cfg.Act, cfg.Dropout, cfg.Seed = nn.ActTanh, 0.2, 9
			t.Run(fmt.Sprintf("%s/%d", c.name, layers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17 + layers)))
				b := edgeBatch(rng, 40, 5, 3, 3, 0.06)
				labels := []int{0, 1, 1}

				step := func(prune, listRows bool) (*tensor.Matrix, map[string]*tensor.Matrix) {
					m, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					opt := RunOptions{Pruning: prune, Train: true}
					prep := m.Prepare(b, opt)
					if !listRows {
						prep.Rows = nil
						st := m.Forward(b, prep, opt)
						_, dl := nn.SoftmaxCrossEntropy(st.Logits, labels)
						m.Backward(st, dl)
						return st.Logits.Clone(), snapshotGrads(m)
					}
					ws := poisonedWorkspace(400, b.Adj.NumRows, 8)
					h := b.X
					for i, layer := range m.Layers {
						h = m.drops[i].Apply(ws, h, prep.Rows[i].In, opt.Key)
						h = layer.Forward(ws, prep.Aggs[i], prep.Rows[i], poisonRows(ws, h, prep.Rows[i].In))
					}
					emb := ws.GetUninit(len(b.Targets), h.Cols)
					h.RowsSubsetInto(emb, b.Targets)
					logits := m.Head.Forward(ws, emb)
					_, dl := nn.SoftmaxCrossEntropy(logits, labels)
					dh := ws.Get(h.Rows, h.Cols)
					tensor.ScatterRowsAdd(dh, m.Head.Backward(ws, dl), b.Targets)
					for i := len(m.Layers) - 1; i >= 0; i-- {
						rows := prep.Rows[i]
						dh = m.Layers[i].Backward(ws, prep.Aggs[i], rows, poisonRows(ws, dh, rows.Out), i > 0)
						if i == 0 {
							break
						}
						zeroOffRows(t, fmt.Sprintf("layer %d input gradient", i), dh, rows.In)
						dh = m.drops[i].Apply(ws, dh, rows.In, opt.Key)
					}
					return logits.Clone(), snapshotGrads(m)
				}

				wantLogits, wantGrads := step(true, false)
				gotLogits, gotGrads := step(true, true)
				sameBitsGNN(t, "target logits", gotLogits, wantLogits)
				sameGrads(t, c.name, gotGrads, wantGrads)
				fullLogits, fullGrads := step(false, false)
				sameBitsGNN(t, "unpruned target logits", gotLogits, fullLogits)
				sameGrads(t, c.name+" unpruned", gotGrads, fullGrads)

				// The batch must exercise the lists: even the first layer
				// leaves rows out.
				if rows := layerRows(nil, b.Dist, layers); rows[0].In == nil {
					t.Fatalf("batch too dense: every row within %d hops", layers)
				}
			})
		}
	}
}

// TestDropoutMasksAreKeyed: a training step's masks are a function of the
// model seed and the batch key alone. A model that has already stepped
// other batches takes the same step on batch key 3 as a fresh one, bit for
// bit; each layer draws its mask only for the rows its Rows.In lists, and
// those rows match the full-batch mask.
func TestDropoutMasksAreKeyed(t *testing.T) {
	cfg := Config{Kind: KindGCN, InDim: 5, Hidden: 6, Classes: 2, Layers: 2,
		Act: nn.ActTanh, Dropout: 0.5, Seed: 9}
	b := edgeBatch(rand.New(rand.NewSource(19)), 40, 5, 3, 3, 0.06)
	labels := []int{0, 1, 1}
	step := func(m *Model, key uint64) (*tensor.Matrix, map[string]*tensor.Matrix) {
		opt := RunOptions{Pruning: true, Train: true, Key: key}
		st := m.Forward(b, m.Prepare(b, opt), opt)
		_, dl := nn.SoftmaxCrossEntropy(st.Logits, labels)
		m.Params().ZeroGrads()
		m.Backward(st, dl)
		return st.Logits.Clone(), snapshotGrads(m)
	}
	fresh, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	used, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLogits, wantGrads := step(fresh, 3)
	step(used, 1)
	step(used, 2)
	gotLogits, gotGrads := step(used, 3)
	sameBitsGNN(t, "logits after other batches", gotLogits, wantLogits)
	sameGrads(t, "after other batches", gotGrads, wantGrads)

	opt := RunOptions{Pruning: true, Train: true, Key: 3}
	prep := fresh.Prepare(b, opt)
	ones := tensor.New(b.Adj.NumRows, cfg.Hidden)
	ones.Fill(1)
	for i := range fresh.Layers {
		in := prep.Rows[i].In
		if in == nil {
			t.Fatalf("layer %d lists every row; the batch must leave some out", i)
		}
		got := fresh.dropout(i, prep, opt, poisonRows(nil, ones, in))
		full := fresh.drops[i].Apply(nil, ones, nil, opt.Key)
		zeroOffRows(t, fmt.Sprintf("layer %d mask", i), got, in)
		for _, r := range in {
			sameBitsGNN(t, fmt.Sprintf("layer %d row %d mask", i, r),
				tensor.FromSlice(1, cfg.Hidden, got.Row(r)), tensor.FromSlice(1, cfg.Hidden, full.Row(r)))
		}
	}
}

// zeroOffRows checks that every row of m not in rows is zero.
func zeroOffRows(t *testing.T, what string, m *tensor.Matrix, rows []int) {
	t.Helper()
	listed := make([]bool, m.Rows)
	for _, r := range rows {
		listed[r] = true
	}
	for r := 0; r < m.Rows && rows != nil; r++ {
		for j, v := range m.Row(r) {
			if !listed[r] && v != 0 {
				t.Fatalf("%s: unlisted row %d col %d = %v, want 0", what, r, j, v)
			}
		}
	}
}

func sameBitsGNN(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s[%d] = %v want %v (must be bit-identical)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestLayerRows pins the row lists to the paper's distance bounds on a
// chain, with an unreachable row and a list that covers every row.
func TestLayerRows(t *testing.T) {
	// dist of rows 0..5: two targets, then 1, 2 and 3 hops out, and one
	// unreachable row.
	dist := []int{0, 1, 0, 2, 3, -1}
	rows := layerRows(nil, dist, 3)
	want := []Rows{
		{Out: []int{0, 1, 2, 3}, In: []int{0, 1, 2, 3, 4}},
		{Out: []int{0, 1, 2}, In: []int{0, 1, 2, 3}},
		{Out: []int{0, 2}, In: []int{0, 1, 2}},
	}
	for k, w := range want {
		if !equalInts(rows[k].Out, w.Out) || !equalInts(rows[k].In, w.In) {
			t.Fatalf("layer %d rows %+v want %+v", k, rows[k], w)
		}
	}
	full := layerRows(nil, []int{0, 1, 1, 2}, 2)
	if full[0].In != nil || !equalInts(full[0].Out, []int{0, 1, 2}) {
		t.Fatalf("a list covering every row must be nil: %+v", full[0])
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
