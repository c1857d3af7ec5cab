package gnn

import (
	"math/rand"
	"testing"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// fullBackwardLayers is backwardLayers without the first-layer skip: every
// layer, and every dropout, computes its input gradient.
func fullBackwardLayers(t *testing.T, m *Model, ws *tensor.Workspace, prep *Prepared, dh *tensor.Matrix) {
	t.Helper()
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dh = m.Layers[i].Backward(ws, prep.Aggs[i], prep.layer(i), dh, true)
		if dh == nil {
			t.Fatalf("layer %d returned no input gradient", i)
		}
		dh = m.drops[i].Apply(ws, dh, prep.layer(i).In, 0)
	}
}

func snapshotGrads(m *Model) map[string]*tensor.Matrix {
	out := map[string]*tensor.Matrix{}
	for _, p := range m.Params().List() {
		out[p.Name] = p.Grad.Clone()
	}
	return out
}

func sameGrads(t *testing.T, name string, got, want map[string]*tensor.Matrix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d gradients want %d", name, len(got), len(want))
	}
	for p, w := range want {
		g := got[p]
		for i := range w.Data {
			if g.Data[i] != w.Data[i] {
				t.Fatalf("%s %s[%d] = %v with the skip, %v without (must be bit-identical)", name, p, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// TestFirstLayerSkipsInputGradient checks that skipping the first layer's
// input gradient (and its dropout backward) leaves every parameter
// gradient bit-identical, for node heads of every kind and for a link head.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"gcn", Config{Kind: KindGCN}},
		{"sage", Config{Kind: KindSAGE}},
		{"gat", Config{Kind: KindGAT, Heads: 2}},
		{"gat_edge", Config{Kind: KindGAT, Heads: 2, EdgeDim: 3}},
		{"gin", Config{Kind: KindGIN}},
		{"link_mlp", Config{Kind: KindGAT, Heads: 2, EdgeHead: EdgeHeadMLP}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			b := edgeBatch(rng, 20, 5, 3, 4, 0.2)
			cfg := c.cfg
			cfg.InDim, cfg.Hidden, cfg.Classes, cfg.Layers = 5, 6, 2, 3
			cfg.Act, cfg.Dropout, cfg.Seed = nn.ActTanh, 0.3, 5
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ws := tensor.NewWorkspace()
			opt := RunOptions{Train: true, Workspace: ws}
			prep := m.Prepare(b, opt)

			// One forward pass feeds both backward passes, so cached
			// activations are shared and both recompute the same masks.
			var skip, full func()
			if cfg.EdgeHead != "" {
				src, dst := []int{0, 3, 7, 3}, []int{5, 5, 1, 12}
				st := m.ForwardEdges(b, prep, src, dst, opt)
				skip = func() { m.BackwardEdges(st, st.Logits) }
				full = func() {
					dhs, dhd := m.Edge.Backward(ws, st.Logits)
					dh := ws.Get(st.H.Rows, st.H.Cols)
					tensor.ScatterRowsAdd(dh, dhs, src)
					tensor.ScatterRowsAdd(dh, dhd, dst)
					fullBackwardLayers(t, m, ws, prep, dh)
				}
			} else {
				st := m.Forward(b, prep, opt)
				_, dl := nn.SoftmaxCrossEntropy(st.Logits, []int{0, 1, 1, 0})
				skip = func() { m.Backward(st, dl) }
				full = func() {
					dEmb := m.Head.Backward(ws, dl)
					dh := ws.Get(st.H.Rows, st.H.Cols)
					tensor.ScatterRowsAdd(dh, dEmb, st.b.Targets)
					fullBackwardLayers(t, m, ws, prep, dh)
				}
			}

			m.Params().ZeroGrads()
			full()
			want := snapshotGrads(m)
			m.Params().ZeroGrads()
			skip()
			sameGrads(t, c.name, snapshotGrads(m), want)

			dy := ws.Get(b.Adj.NumRows, cfg.Hidden)
			if dx := m.Layers[0].Backward(ws, prep.Aggs[0], prep.layer(0), dy, false); dx != nil {
				t.Fatalf("layer 0 returned an input gradient without inputGrad")
			}
		})
	}
}
