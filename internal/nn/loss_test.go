package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// hostileLogits are the logits the exactness tests of both losses
// place: signed zeros, infinities, NaN, subnormals, values whose
// exponential overflows or underflows, and ordinary ones.
var hostileLogits = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 709.8, -709.8, 745.2, -745.2,
	36.7, -36.7, 1, -1, 0.5, -2.5, 1e-17, -1e-17}

// sameOrNaN reports equal bits, or two NaNs of any payload.
func sameOrNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireLossBits fails unless loss and dl have want's and wantDL's
// bits, NaNs by class.
func requireLossBits(t *testing.T, tag string, loss, want float64, dl, wantDL *mat.Dense) {
	t.Helper()
	if !sameOrNaN(loss, want) {
		t.Fatalf("%s: loss %v (%#016x), want %v (%#016x)", tag, loss, math.Float64bits(loss), want, math.Float64bits(want))
	}
	for k := range wantDL.Data {
		if got := dl.Data[k]; !sameOrNaN(got, wantDL.Data[k]) {
			t.Fatalf("%s: dLogits[%d] = %v (%#016x), want %v (%#016x)", tag, k,
				got, math.Float64bits(got), wantDL.Data[k], math.Float64bits(wantDL.Data[k]))
		}
	}
}

// hostileRows calls fn with a 3-row matrix of seeded logits w wide
// whose row 2 holds z at position p, for each z of hostileLogits and
// each p, with the mask {2, 0}: the masked rows in other than their
// order, and the row between them unmasked.
func hostileRows(r *rng.RNG, w int, fn func(logits *mat.Dense, z float64, p int, mask []int)) {
	for _, z := range hostileLogits {
		for p := 0; p < w; p++ {
			logits := randMat(r, 3, w)
			logits.Scale(3)
			logits.Set(2, p, z)
			fn(logits, z, p, []int{2, 0})
		}
	}
}

// TestSigmoidBCEMatchesTwoExponentials holds SigmoidBCE.Eval, which
// takes exp(-|z|) once per element, to the form it replaced — the loss
// term's exponential and the sigmoid's own, exp(-z) for z >= 0 and
// exp(z) below, math.Max and math.Log1p, element by element — bit for
// bit on the loss and on dLogits, NaNs by class: one element at a time
// against labels 0 and 1, and each of hostileLogits at every position
// of rows 9 and 17 wide, so that it meets mat.Exp and mat.Log1p in
// every lane of a group of four and of the masked last group.
func TestSigmoidBCEMatchesTwoExponentials(t *testing.T) {
	oldSigmoid := func(z float64) float64 {
		if z >= 0 {
			return 1 / (1 + math.Exp(-z))
		}
		e := math.Exp(z)
		return e / (1 + e)
	}
	// reference is the replaced Eval over the masked rows of logits.
	reference := func(logits, labels *mat.Dense, mask []int) (float64, *mat.Dense) {
		want, total := mat.New(logits.Rows, logits.Cols), 0.0
		inv := 1 / float64(len(mask))
		for _, i := range mask {
			for j, z := range logits.Row(i) {
				y := labels.At(i, j)
				total += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
				want.Set(i, j, (oldSigmoid(z)-y)*inv)
			}
		}
		return total * inv, want
	}
	dl := mat.New(1, 1)
	for _, z := range hostileLogits {
		for _, y := range []float64{0, 1} {
			logits, labels := mat.FromData(1, 1, []float64{z}), mat.FromData(1, 1, []float64{y})
			loss := (SigmoidBCE{}).Eval(logits, labels, nil, dl)
			want, wantDL := reference(logits, labels, []int{0})
			requireLossBits(t, fmt.Sprintf("z=%v y=%v", z, y), loss, want, dl, wantDL)
		}
	}
	r := rng.New(41)
	for _, w := range []int{9, 17} {
		hostileRows(r, w, func(logits *mat.Dense, z float64, p int, mask []int) {
			labels := mat.New(3, w)
			for k := range labels.Data {
				labels.Data[k] = float64(r.Intn(2))
			}
			dl := mat.New(3, w)
			dl.Fill(9)
			loss := (SigmoidBCE{}).Eval(logits, labels, mask, dl)
			want, wantDL := reference(logits, labels, mask)
			requireLossBits(t, fmt.Sprintf("width %d z=%v at %d", w, z, p), loss, want, dl, wantDL)
		})
	}
}

// TestSoftmaxCEMatchesScalarExp holds SoftmaxCE.Eval, whose
// exponentials mat.Exp takes four at a time, to the element-by-element
// form written here with math.Exp and math.Log, bit for bit on the
// loss and on dLogits, NaNs by class: each of hostileLogits at every
// position of rows 9 and 17 wide, against the row's one-hot label at
// every position.
func TestSoftmaxCEMatchesScalarExp(t *testing.T) {
	reference := func(logits, labels *mat.Dense, mask []int) (float64, *mat.Dense) {
		want, total := mat.New(logits.Rows, logits.Cols), 0.0
		inv := 1 / float64(len(mask))
		ex := make([]float64, logits.Cols)
		for _, i := range mask {
			zrow := logits.Row(i)
			maxZ := zrow[0]
			for _, z := range zrow[1:] {
				if z > maxZ {
					maxZ = z
				}
			}
			sum := 0.0
			for j, z := range zrow {
				ex[j] = math.Exp(z - maxZ)
				sum += ex[j]
			}
			logSum := math.Log(sum) + maxZ
			for j, z := range zrow {
				y := labels.At(i, j)
				want.Set(i, j, (ex[j]/sum-y)*inv)
				if y == 1 {
					total += logSum - z
				}
			}
		}
		return total * inv, want
	}
	r := rng.New(43)
	for _, w := range []int{9, 17} {
		hostileRows(r, w, func(logits *mat.Dense, z float64, p int, mask []int) {
			for q := 0; q < w; q++ {
				labels := mat.New(3, w)
				for i := 0; i < 3; i++ {
					labels.Set(i, (q+i)%w, 1)
				}
				dl := mat.New(3, w)
				dl.Fill(9)
				loss := (SoftmaxCE{}).Eval(logits, labels, mask, dl)
				want, wantDL := reference(logits, labels, mask)
				requireLossBits(t, fmt.Sprintf("width %d z=%v at %d, label at %d", w, z, p, q), loss, want, dl, wantDL)
			}
		})
	}
}

// TestMaxZeroIsMathMax: maxZero, SigmoidBCE's inlined max(z, 0), has
// math.Max(z, 0)'s bits on signed zeros, infinities, NaNs, the edges
// of the subnormals and 10^6 seeded bit patterns. A NaN's payload is
// compared too on amd64, where math.Max returns math.NaN() for every
// NaN, as maxZero does; elsewhere its class.
func TestMaxZeroIsMathMax(t *testing.T) {
	same := func(a, b float64) bool {
		if runtime.GOARCH != "amd64" {
			return sameOrNaN(a, b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	}
	zs := append([]float64{math.Float64frombits(0x7ff4000000000abc), math.Float64frombits(0xfff8000000000001),
		math.Nextafter(0, 1), math.Nextafter(0, -1), math.Nextafter(0x1p-1022, 0)}, hostileLogits...)
	r := rng.New(47)
	for i := 0; i < 1_000_000; i++ {
		zs = append(zs, math.Float64frombits(r.Uint64()))
	}
	for _, z := range zs {
		if got, want := maxZero(z), math.Max(z, 0); !same(got, want) {
			t.Fatalf("maxZero(%v = %#016x) = %#016x, math.Max %#016x", z, math.Float64bits(z), math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestLossesAllocateNothing: both losses, masked as a training step
// masks them and unmasked as baseline.SAGE calls them, allocate
// nothing — SigmoidBCE takes its log1p terms through an array on its
// stack, and neither builds a row list for a nil mask.
func TestLossesAllocateNothing(t *testing.T) {
	r := rng.New(53)
	logits, labels, dl := randMat(r, 40, 121), mat.New(40, 121), mat.New(40, 121)
	for i := 0; i < 40; i++ {
		labels.Set(i, r.Intn(121), 1)
	}
	for _, loss := range []Loss{SigmoidBCE{}, SoftmaxCE{}} {
		for _, mask := range [][]int{{0, 3, 4, 17, 39}, nil} {
			if a := testing.AllocsPerRun(20, func() { loss.Eval(logits, labels, mask, dl) }); a != 0 {
				t.Errorf("%s.Eval with mask %v allocates %v times per call, want 0", loss.Name(), mask, a)
			}
		}
	}
}

var lossSink float64

// BenchmarkLoss times both losses at the training workloads' shapes,
// masked as a step masks them: sigmoid-BCE on 289 of 434 rows × 121
// classes (train_gemm's ppi subgraph) and softmax-CE on 448 of 673 rows
// × 41 (train_prop's reddit one), with logits ~ N(0, 3²). The two cases
// alternate inside each iteration, so a drift of the host's speed
// reaches both alike; each reports ns per masked element, and allocs/op
// is the pair's.
func BenchmarkLoss(b *testing.B) {
	type lossCase struct {
		name               string
		loss               Loss
		logits, labels, dl *mat.Dense
		mask               []int
	}
	r := rng.New(59)
	// shape builds a case of rows x classes, masked rows of them, with
	// a third of the labels set (multi-label) or one a row.
	shape := func(name string, loss Loss, rows, masked, classes int, multi bool) lossCase {
		c := lossCase{name: name, loss: loss, logits: randMat(r, rows, classes),
			labels: mat.New(rows, classes), dl: mat.New(rows, classes)}
		c.logits.Scale(3)
		for i := 0; i < rows; i++ {
			if !multi {
				c.labels.Set(i, r.Intn(classes), 1)
				continue
			}
			for j := 0; j < classes; j++ {
				if r.Intn(3) == 0 {
					c.labels.Set(i, j, 1)
				}
			}
		}
		for i := 0; i < rows; i++ { // masked rows ascending, as StepOn lists them
			if (rows-i)*r.Intn(1<<20) < (masked-len(c.mask))<<20 {
				c.mask = append(c.mask, i)
			}
		}
		return c
	}
	cases := [2]lossCase{
		shape("sigmoid-bce", SigmoidBCE{}, 434, 289, 121, true),
		shape("softmax-ce", SoftmaxCE{}, 673, 448, 41, false),
	}
	var spent [2]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cases {
			k := (i + j) % 2
			c := &cases[k]
			start := time.Now()
			lossSink = c.loss.Eval(c.logits, c.labels, c.mask, c.dl)
			spent[k] += time.Since(start)
		}
	}
	for k, c := range cases {
		b.ReportMetric(float64(spent[k].Nanoseconds())/float64(b.N*len(c.mask)*c.logits.Cols), c.name+"-ns/elem")
	}
}
