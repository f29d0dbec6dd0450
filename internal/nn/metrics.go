package nn

import "gsgcn/internal/mat"

// PredictMulti thresholds sigmoid(logits) at 0.5 — equivalently
// logits at 0 — producing a {0,1} multi-hot prediction matrix.
func PredictMulti(logits *mat.Dense) *mat.Dense {
	out := mat.New(logits.Rows, logits.Cols)
	for i, z := range logits.Data {
		if z > 0 {
			out.Data[i] = 1
		}
	}
	return out
}

// PredictSingle one-hot-encodes the argmax class of each row.
func PredictSingle(logits *mat.Dense) *mat.Dense {
	out := mat.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, z := range row {
			if z > row[best] {
				best = j
			}
		}
		out.Set(i, best, 1)
	}
	return out
}

// F1Micro computes the micro-averaged F1 score between {0,1}
// prediction and label matrices over the given rows (all rows when
// rows is nil). This is the accuracy measure of the paper's Figure 2.
// For single-label (one-hot) data micro-F1 equals plain accuracy.
func F1Micro(pred, labels *mat.Dense, rows []int) float64 {
	tp, fp, fn := confusion(pred, labels, rows)
	var t, p, n float64
	for j := range tp {
		t, p, n = t+tp[j], p+fp[j], n+fn[j]
	}
	return f1(t, p, n)
}

// confusion counts the true positives, false positives and false
// negatives of each class (column) over the rows (all when nil).
func confusion(pred, labels *mat.Dense, rows []int) (tp, fp, fn []float64) {
	c := pred.Cols
	tp, fp, fn = make([]float64, c), make([]float64, c), make([]float64, c)
	for t := 0; t < rowCount(rows, pred.Rows); t++ {
		i := rowAt(rows, t)
		prow, lrow := pred.Row(i), labels.Row(i)
		for j := 0; j < c; j++ {
			switch {
			case prow[j] == 1 && lrow[j] == 1:
				tp[j]++
			case prow[j] == 1 && lrow[j] == 0:
				fp[j]++
			case prow[j] == 0 && lrow[j] == 1:
				fn[j]++
			}
		}
	}
	return tp, fp, fn
}

// f1 is 2·tp / (2·tp + fp + fn), and 0 without a true positive.
func f1(tp, fp, fn float64) float64 {
	if tp == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}
