package nn

import (
	"math"

	"agl/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of row-wise softmax
// over logits against integer class labels, returning the loss and the
// gradient w.r.t. logits. Rows with label < 0 are ignored (masked).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	return SoftmaxCrossEntropyWS(nil, logits, labels)
}

// SoftmaxCrossEntropyWS is SoftmaxCrossEntropy with the gradient and
// scratch drawn from a per-step workspace (nil allocates).
func SoftmaxCrossEntropyWS(ws *tensor.Workspace, logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	grad := ws.Get(logits.Rows, logits.Cols)
	var loss float64
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if labels[i] < 0 {
			continue
		}
		count++
	}
	if count == 0 {
		return 0, grad
	}
	inv := 1 / float64(count)
	probs := ws.Floats(logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		y := labels[i]
		if y < 0 {
			continue
		}
		row := logits.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			probs[j] = math.Exp(v - maxv)
			sum += probs[j]
		}
		loss += -(row[y] - maxv - math.Log(sum)) * inv
		grow := grad.Row(i)
		for j := range probs {
			grow[j] = probs[j] / sum * inv
		}
		grow[y] -= inv
	}
	return loss, grad
}

// SigmoidBCE computes the mean binary cross-entropy between elementwise
// sigmoid(logits) and 0/1 targets, returning the loss and the gradient
// w.r.t. logits. It supports multi-label targets (any number of columns)
// and uses the numerically stable log-sum-exp formulation.
func SigmoidBCE(logits, targets *tensor.Matrix) (float64, *tensor.Matrix) {
	return SigmoidBCEWS(nil, logits, targets)
}

// SigmoidBCEWS is SigmoidBCE with the gradient drawn from a per-step
// workspace (nil allocates).
func SigmoidBCEWS(ws *tensor.Workspace, logits, targets *tensor.Matrix) (float64, *tensor.Matrix) {
	if logits.Rows != targets.Rows || logits.Cols != targets.Cols {
		panic("nn: SigmoidBCE shape mismatch")
	}
	n := float64(len(logits.Data))
	if n == 0 {
		return 0, tensor.New(0, 0)
	}
	grad := ws.Get(logits.Rows, logits.Cols)
	var loss float64
	for i, z := range logits.Data {
		t := targets.Data[i]
		// loss = max(z,0) - z*t + log(1+exp(-|z|))
		l := math.Log1p(math.Exp(-math.Abs(z)))
		if z > 0 {
			l += z - z*t
		} else {
			l += -z * t
		}
		loss += l
		s := Sigmoid(z)
		grad.Data[i] = (s - t) / n
	}
	return loss / n, grad
}

// Sigmoid is the logistic function.
func Sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// SigmoidMatrix returns elementwise sigmoid(m).
func SigmoidMatrix(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = Sigmoid(v)
	}
	return out
}
