package nn

import (
	"math"

	"gsgcn/internal/mat"
)

// Loss evaluates a training criterion on logits against {0,1} label
// matrices and produces the gradient w.r.t. the logits. mask, when
// non-nil, restricts the loss to the given rows (e.g. only labeled
// training vertices of a sampled subgraph); unmasked rows contribute
// zero loss and zero gradient.
type Loss interface {
	Name() string
	// Eval returns the mean loss over the selected rows and writes
	// dLogits (same shape as logits).
	Eval(logits, labels *mat.Dense, mask []int, dLogits *mat.Dense) float64
}

// SigmoidBCE is elementwise binary cross-entropy with logits — the
// multi-label criterion used for PPI/Yelp/Amazon.
type SigmoidBCE struct{}

// Name implements Loss.
func (SigmoidBCE) Name() string { return "sigmoid-bce" }

// Eval implements Loss. The loss per element is computed in the
// numerically stable form max(z,0) - z*y + log(1+exp(-|z|)), and the
// gradient's sigmoid from the same exp(-|z|).
func (SigmoidBCE) Eval(logits, labels *mat.Dense, mask []int, dLogits *mat.Dense) float64 {
	checkLossShapes(logits, labels, dLogits)
	dLogits.Zero()
	rows := maskOrAll(mask, logits.Rows)
	if len(rows) == 0 {
		return 0
	}
	total := 0.0
	inv := 1 / float64(len(rows))
	c := logits.Cols
	for _, i := range rows {
		zrow := logits.Row(i)
		yrow := labels.Row(i)
		drow := dLogits.Row(i)
		for j := 0; j < c; j++ {
			z, y := zrow[j], yrow[j]
			e := math.Exp(-math.Abs(z))
			total += math.Max(z, 0) - z*y + math.Log1p(e)
			drow[j] = (sigmoidOf(z, e) - y) * inv
		}
	}
	return total * inv
}

// SoftmaxCE is categorical cross-entropy over mutually exclusive
// classes — the single-label criterion used for Reddit.
type SoftmaxCE struct{}

// Name implements Loss.
func (SoftmaxCE) Name() string { return "softmax-ce" }

// Eval implements Loss. A row's exp(z − max) terms are staged in its
// own dLogits slots, so a masked call allocates nothing.
func (SoftmaxCE) Eval(logits, labels *mat.Dense, mask []int, dLogits *mat.Dense) float64 {
	checkLossShapes(logits, labels, dLogits)
	dLogits.Zero()
	rows := maskOrAll(mask, logits.Rows)
	if len(rows) == 0 {
		return 0
	}
	total := 0.0
	inv := 1 / float64(len(rows))
	c := logits.Cols
	for _, i := range rows {
		zrow := logits.Row(i)
		yrow := labels.Row(i)
		drow := dLogits.Row(i)
		maxZ := zrow[0]
		for _, z := range zrow[1:] {
			if z > maxZ {
				maxZ = z
			}
		}
		sum := 0.0
		for j, z := range zrow {
			drow[j] = math.Exp(z - maxZ)
			sum += drow[j]
		}
		logSum := math.Log(sum) + maxZ
		for j := 0; j < c; j++ {
			drow[j] = (drow[j]/sum - yrow[j]) * inv
			if yrow[j] == 1 {
				total += logSum - zrow[j]
			}
		}
	}
	return total * inv
}

// sigmoidOf returns 1/(1+exp(-z)) given e = exp(-|z|), in the form that
// does not overflow: 1/(1+e) for z >= 0 (-0 included, where e is 1) and
// e/(1+e) below — for a NaN z too, whose e is NaN. Each branch is the
// exponential it always took, exp(-z) or exp(z), now shared with the
// loss term.
func sigmoidOf(z, e float64) float64 {
	if z >= 0 {
		return 1 / (1 + e)
	}
	return e / (1 + e)
}

func checkLossShapes(logits, labels, dLogits *mat.Dense) {
	if logits.Rows != labels.Rows || logits.Cols != labels.Cols ||
		logits.Rows != dLogits.Rows || logits.Cols != dLogits.Cols {
		panic("nn: loss shape mismatch")
	}
}

func maskOrAll(mask []int, n int) []int {
	if mask != nil {
		return mask
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
