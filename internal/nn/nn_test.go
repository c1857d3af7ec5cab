package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"agl/internal/tensor"
)

// softmax returns the row-wise softmax of logits.
func softmax(logits *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			orow[j] = math.Exp(v - maxv)
			sum += orow[j]
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

func TestParamSetBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := GlorotParam("a", 2, 3, rng)
	b := NewParam("b", 1, 4)
	s := NewParamSet(a, b)
	if s.Len() != 2 || s.Get("a") != a || s.Get("missing") != nil {
		t.Fatal("ParamSet lookup broken")
	}
	if got := s.Names(); got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names order: %v", got)
	}
	if s.NumValues() != 6+4 {
		t.Fatalf("NumValues=%d", s.NumValues())
	}
	a.Grad.Fill(3)
	s.ZeroGrads()
	if slices.ContainsFunc(a.Grad.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("ZeroGrads failed")
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewParamSet(NewParam("x", 1, 1), NewParam("x", 1, 1))
}

func TestParamSetCopyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewParamSet(GlorotParam("w", 3, 3, rng))
	dst := NewParamSet(NewParam("w", 3, 3))
	if err := dst.CopyWeightsFrom(src); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equalish(dst.Get("w").W, src.Get("w").W, 0) {
		t.Fatal("weights not copied")
	}
	bad := NewParamSet(NewParam("other", 3, 3))
	if err := bad.CopyWeightsFrom(src); err == nil {
		t.Fatal("expected error for mismatched names")
	}
}

func TestDenseForwardBackwardGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense("d", 4, 3, rng)
	x := tensor.New(5, 4)
	x.RandFill(rng, 1)
	labels := []int{0, 1, 2, 0, 1}

	lossFn := func() float64 {
		y := d.Forward(nil, x)
		l, _ := SoftmaxCrossEntropy(y, labels)
		return l
	}
	y := d.Forward(nil, x)
	loss, dy := SoftmaxCrossEntropy(y, labels)
	if loss <= 0 {
		t.Fatalf("loss=%v", loss)
	}
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	dx := d.Backward(nil, dy)

	for _, p := range d.Params() {
		rel, err := GradCheck(p, lossFn, 1e-6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rel > 1e-5 {
			t.Fatalf("param %s gradcheck rel error %v", p.Name, rel)
		}
	}
	rel, err := GradCheckInput(x, dx, lossFn, 1e-6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-5 {
		t.Fatalf("input gradcheck rel error %v", rel)
	}
}

func TestActivationsGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kinds := []ActKind{ActIdentity, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid, ActELU}
	for _, kind := range kinds {
		act := &Activation{Kind: kind}
		x := tensor.New(4, 3)
		x.RandFill(rng, 2)
		// Avoid kinks at exactly zero for ReLU-family finite differences.
		for i := range x.Data {
			if math.Abs(x.Data[i]) < 1e-3 {
				x.Data[i] = 0.1
			}
		}
		target := tensor.New(4, 3)
		for i := range target.Data {
			target.Data[i] = float64(i%2) * 0.5
		}
		lossFn := func() float64 {
			y := act.Forward(nil, x)
			l, _ := SigmoidBCE(y, target)
			return l
		}
		y := act.Forward(nil, x)
		_, dy := SigmoidBCE(y, target)
		dx := act.Backward(nil, dy)
		rel, err := GradCheckInput(x, dx, lossFn, 1e-6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rel > 1e-4 {
			t.Fatalf("activation %v gradcheck rel error %v", kind, rel)
		}
	}
}

func TestActivationNames(t *testing.T) {
	if ActReLU.String() != "relu" || ActLeakyReLU.String() != "leaky_relu" || ActKind(99).String() != "unknown" {
		t.Fatal("activation names wrong")
	}
}

// TestDropoutTrainEval: a mask drops about Rate of the entries, the
// backward pass applies the same mask, a row subset draws exactly those rows of the
// full-batch mask and reads no other row, another batch key draws another
// mask, and a zero Rate is the identity.
func TestDropoutTrainEval(t *testing.T) {
	d := Dropout{Rate: 0.5, Key: 5}
	x := tensor.New(50, 40)
	x.Fill(1)
	y := d.Apply(nil, x, nil, 7)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout did nothing")
	}
	frac := float64(zeros) / float64(len(y.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction %v far from 0.5", frac)
	}
	// The backward pass recomputes the mask.
	dy := tensor.New(50, 40)
	dy.Fill(1)
	dx := d.Apply(nil, dy, nil, 7)
	for i, v := range y.Data {
		if v != dx.Data[i] {
			t.Fatal("dropout mask not applied to gradient")
		}
	}
	// A row subset: the full-batch mask on the listed rows, zero elsewhere,
	// and no unlisted row read.
	rows := []int{3, 17, 49}
	poisoned := x.Clone()
	for r := 0; r < poisoned.Rows; r++ {
		if !slices.Contains(rows, r) {
			poisoned.Row(r)[0] = math.NaN()
		}
	}
	sub := d.Apply(nil, poisoned, rows, 7)
	for r := 0; r < sub.Rows; r++ {
		for c, v := range sub.Row(r) {
			want := 0.0
			if slices.Contains(rows, r) {
				want = y.At(r, c)
			}
			if v != want {
				t.Fatalf("row subset (%d,%d) = %v want %v", r, c, v, want)
			}
		}
	}
	if other := d.Apply(nil, x, nil, 8); slices.Equal(other.Data, y.Data) {
		t.Fatal("batch keys 7 and 8 drew the same mask")
	}
	if (Dropout{Key: 5}).Apply(nil, x, nil, 7) != x {
		t.Fatal("zero-rate dropout should pass through")
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	logits := tensor.FromRows([][]float64{{0, 0}, {100, 0}})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 0})
	// First row: -log(0.5); second: ~0.
	want := math.Log(2) / 2
	if math.Abs(loss-want) > 1e-9 {
		t.Fatalf("loss=%v want %v", loss, want)
	}
	if grad.At(0, 0) >= 0 || grad.At(0, 1) <= 0 {
		t.Fatalf("grad signs wrong: %v", grad)
	}
}

func TestSoftmaxCrossEntropyMasked(t *testing.T) {
	logits := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	lossAll, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
	lossMasked, gradMasked := SoftmaxCrossEntropy(logits, []int{0, -1})
	if lossMasked == lossAll {
		t.Fatal("mask had no effect")
	}
	if gradMasked.Row(1)[0] != 0 || gradMasked.Row(1)[1] != 0 {
		t.Fatal("masked row received gradient")
	}
	// All-masked returns zero.
	lz, gz := SoftmaxCrossEntropy(logits, []int{-1, -1})
	if lz != 0 || slices.ContainsFunc(gz.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("all-masked loss should be zero")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := tensor.New(10, 7)
	m.RandFill(rng, 5)
	s := softmax(m)
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			sum += v
			if v < 0 {
				t.Fatal("negative probability")
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSigmoidBCEStableAtExtremes(t *testing.T) {
	logits := tensor.FromRows([][]float64{{1000, -1000}})
	targets := tensor.FromRows([][]float64{{1, 0}})
	loss, grad := SigmoidBCE(logits, targets)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct predictions should have ~0 loss: %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestSigmoidBCEGradcheckViaDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense("d", 3, 2, rng)
	x := tensor.New(4, 3)
	x.RandFill(rng, 1)
	target := tensor.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}})
	lossFn := func() float64 {
		l, _ := SigmoidBCE(d.Forward(nil, x), target)
		return l
	}
	_, dy := SigmoidBCE(d.Forward(nil, x), target)
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	d.Backward(nil, dy)
	rel, _ := GradCheck(d.W, lossFn, 1e-6, 1)
	if rel > 1e-5 {
		t.Fatalf("BCE gradcheck rel error %v", rel)
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.W.Data[0], p.W.Data[1] = 1, 2
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -0.5
	o := NewSGD(0.1)
	o.Step(p)
	if math.Abs(p.W.Data[0]-0.95) > 1e-12 || math.Abs(p.W.Data[1]-2.05) > 1e-12 {
		t.Fatalf("SGD step wrong: %v", p.W.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("p", 1, 1)
	p.Grad.Data[0] = 1
	o := NewSGD(1)
	o.Momentum = 0.9
	o.Step(p)
	first := p.W.Data[0]
	o.Step(p)
	second := p.W.Data[0] - first
	if math.Abs(first-(-1)) > 1e-12 {
		t.Fatalf("first step %v", first)
	}
	if math.Abs(second-(-1.9)) > 1e-12 {
		t.Fatalf("second step delta %v want -1.9", second)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam.
	p := NewParam("w", 1, 1)
	o := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		o.Step(p)
	}
	if math.Abs(p.W.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam did not converge: w=%v", p.W.Data[0])
	}
}

func TestAdamStatePerParam(t *testing.T) {
	a, b := NewParam("a", 1, 1), NewParam("b", 1, 1)
	o := NewAdam(0.1)
	a.Grad.Data[0] = 1
	o.Step(a)
	// b's first step must behave like t=1 (full bias correction), not t=2.
	b.Grad.Data[0] = 1
	o.Step(b)
	if math.Abs(a.W.Data[0]-b.W.Data[0]) > 1e-12 {
		t.Fatalf("per-param Adam state leaked: %v vs %v", a.W.Data[0], b.W.Data[0])
	}
}

func TestWeightDecayPullsTowardZero(t *testing.T) {
	p := NewParam("p", 1, 1)
	p.W.Data[0] = 1
	o := NewSGD(0.1)
	o.WeightDecay = 0.5
	// zero task gradient: only decay acts
	o.Step(p)
	if p.W.Data[0] >= 1 {
		t.Fatal("weight decay did not shrink weight")
	}
}

// Property: softmax is invariant to constant row shifts.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.New(3, 5)
		m.RandFill(rng, 3)
		shifted := m.Clone()
		c := rng.NormFloat64() * 10
		for i := range shifted.Data {
			shifted.Data[i] += c
		}
		return tensor.Equalish(softmax(m), softmax(shifted), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CE loss is non-negative and gradient rows sum to ~0.
func TestCrossEntropyGradientRowSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(5), 2+rng.Intn(5)
		m := tensor.New(rows, cols)
		m.RandFill(rng, 3)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(cols)
		}
		loss, grad := SoftmaxCrossEntropy(m, labels)
		if loss < 0 {
			return false
		}
		for i := 0; i < rows; i++ {
			var sum float64
			for _, v := range grad.Row(i) {
				sum += v
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
