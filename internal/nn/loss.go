package nn

import (
	"math"

	"gsgcn/internal/mat"
)

// Loss evaluates a training criterion on logits against {0,1} label
// matrices and produces the gradient w.r.t. the logits. mask, when
// non-nil, restricts the loss to the given rows (e.g. only labeled
// training vertices of a sampled subgraph); unmasked rows contribute
// zero loss and zero gradient, and their labels are never read. Both
// losses stage a row's exponentials in its own dLogits slots and take
// them, and SigmoidBCE its log1p terms, through mat.Exp and mat.Log1p,
// which return math.Exp's and math.Log1p's bits four at a time; the
// loss sums its terms in row-then-column order, so it has the bits of
// the element-by-element form.
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

// log1pChunk is how many of a row's log1p terms SigmoidBCE.Eval takes
// at a time, through an array on its stack: a row of up to 128 classes
// (ppi's 121) in one call.
const log1pChunk = 128

// Eval implements Loss. The loss per element is computed in the
// numerically stable form max(z,0) - z*y + log(1+exp(-|z|)), and the
// gradient's sigmoid from the same exp(-|z|), staged in the row's
// dLogits slots; a masked call allocates nothing.
func (SigmoidBCE) Eval(logits, labels *mat.Dense, mask []int, dLogits *mat.Dense) float64 {
	checkLossShapes(logits, labels, dLogits)
	dLogits.Zero()
	n := rowCount(mask, logits.Rows)
	if n == 0 {
		return 0
	}
	total := 0.0
	inv := 1 / float64(n)
	var l1p [log1pChunk]float64
	for t := 0; t < n; t++ {
		i := rowAt(mask, t)
		zrow := logits.Row(i)
		yrow := labels.Row(i)
		drow := dLogits.Row(i)
		for j, z := range zrow {
			drow[j] = -math.Abs(z)
		}
		mat.Exp(drow, drow)
		for j0 := 0; j0 < len(zrow); j0 += log1pChunk {
			terms := l1p[:min(log1pChunk, len(zrow)-j0)]
			mat.Log1p(terms, drow[j0:])
			for j, lp := range terms {
				z, y, e := zrow[j0+j], yrow[j0+j], drow[j0+j]
				total += maxZero(z) - z*y + lp
				drow[j0+j] = (sigmoidOf(z, e) - y) * inv
			}
		}
	}
	return total * inv
}

// SoftmaxCE is categorical cross-entropy over mutually exclusive
// classes — the single-label criterion used for Reddit.
type SoftmaxCE struct{}

// Name implements Loss.
func (SoftmaxCE) Name() string { return "softmax-ce" }

// Eval implements Loss. A row's z − max terms are written to its own
// dLogits slots and exponentiated there by mat.Exp, so a masked call
// allocates nothing.
func (SoftmaxCE) Eval(logits, labels *mat.Dense, mask []int, dLogits *mat.Dense) float64 {
	checkLossShapes(logits, labels, dLogits)
	dLogits.Zero()
	n := rowCount(mask, logits.Rows)
	if n == 0 {
		return 0
	}
	total := 0.0
	inv := 1 / float64(n)
	c := logits.Cols
	for t := 0; t < n; t++ {
		i := rowAt(mask, t)
		zrow := logits.Row(i)
		yrow := labels.Row(i)
		drow := dLogits.Row(i)
		maxZ := zrow[0]
		for _, z := range zrow[1:] {
			if z > maxZ {
				maxZ = z
			}
		}
		for j, z := range zrow {
			drow[j] = z - maxZ
		}
		mat.Exp(drow, drow)
		sum := 0.0
		for _, e := range drow {
			sum += e
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

// maxZero is math.Max(z, 0) with its bits, inlined: z above 0, +0 for
// a zero of either sign and everything below, and math.NaN() — not z —
// for a NaN. Below the NaN test it clears every bit of a z whose sign
// bit is set, so the sign of a logit costs no branch.
func maxZero(z float64) float64 {
	if z != z {
		return math.NaN()
	}
	b := math.Float64bits(z)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// sigmoidOf returns 1/(1+exp(-z)) given e = exp(-|z|), in the form that
// does not overflow: 1/(1+e) for z >= 0 and e/(1+e) below, the
// numerator picked by z's sign bit rather than a branch. Each form is
// the exponential it always took, exp(-z) or exp(z), now shared with
// the loss term. The sign bit sends -0 to e/(1+e), which is 1/(1+e)
// there (e is 1), and a NaN z to either form by its sign; both return
// e's NaN, since 1+e is that NaN and a quotient of NaNs returns the
// dividend's.
func sigmoidOf(z, e float64) float64 {
	neg := uint64(int64(math.Float64bits(z)) >> 63)
	num := math.Float64bits(e)&neg | math.Float64bits(1)&^neg
	return math.Float64frombits(num) / (1 + e)
}

func checkLossShapes(logits, labels, dLogits *mat.Dense) {
	if logits.Rows != labels.Rows || logits.Cols != labels.Cols ||
		logits.Rows != dLogits.Rows || logits.Cols != dLogits.Cols {
		panic("nn: loss shape mismatch")
	}
}
