package mat

// Differential suite for Exp and Log1p: at every kernel level the host
// has, each must return math.Exp's and math.Log1p's bits — NaN
// payloads included, since a NaN input, like every input the vector
// routines do not replicate, goes to the scalar call itself — on about
// a million seeded inputs a function spread over each of the standard
// library's paths, on every boundary between them with its
// neighbours, at every length and alignment and in place.

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/rng"
)

// elementwise names the two kernels beside their references.
var elementwise = []struct {
	name   string
	run    func(dst, src []float64)
	ref    func(float64) float64
	inputs func(r *rng.RNG, n int) []float64
	edges  func() []float64
}{
	{"Exp", Exp, math.Exp, expInputs, expEdges},
	{"Log1p", Log1p, math.Log1p, log1pInputs, log1pEdges},
}

// elementwiseSpecials are the inputs every function meets: zeros,
// infinities, a NaN with a payload of its own, subnormals and the ends
// of the float64 range.
var elementwiseSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff4000000000abc), math.Float64frombits(0xfff8000000000001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// around returns x and its n float64 neighbours on either side.
func around(x float64, n int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < n; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// nudge moves x by up to four float64 steps either way.
func nudge(r *rng.RNG, x float64) float64 {
	for i, n := 0, r.Intn(9)-4; i < n; i++ {
		x = math.Nextafter(x, math.Inf(1))
	}
	for i, n := 0, r.Intn(9)-4; i > n; i-- {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// expEdges are archExp's boundaries: its overflow bound; where the
// scale 2^k leaves the normal numbers (k+1023 = 0, x·log2e = -1022.5)
// and where exp(x) does (x = -1022·ln 2, about -708.40); where its
// denormal path gives way to 0 (k = -1076) and where exp(x) reaches
// the smallest subnormal (-1075·ln 2, about -745.13); where k would
// reach 1024; and the rounding edges of k, x·log2e half-way between
// two integers, in the losses' range and at the ends.
func expEdges() []float64 {
	const overflow = 7.09782712893384e+02
	var out []float64
	for _, x := range []float64{overflow, -1022.5 * math.Ln2, -1022 * math.Ln2, -1075.5 * math.Ln2,
		-1075 * math.Ln2, 1023.5 * math.Ln2, -20, -1e-300} {
		out = append(out, around(x, 3)...)
	}
	for _, k := range []float64{-30, -29, -2, -1, 0, 1, 500, 1023} {
		out = append(out, around((k+0.5)/math.Log2E, 2)...)
	}
	return append(out, elementwiseSpecials...)
}

// expInputs returns n seeded arguments of math.Exp: a quarter in the
// losses' range, exp(-|z|) for |z| <= 20, a quarter over every normal
// result, and the rest past the ends of that, on k's rounding edges,
// of tiny magnitude, of any bits at all, and special.
func expInputs(r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch u := r.Intn(20); {
		case u < 5:
			out[i] = -20 * r.Float64()
		case u < 10:
			out[i] = -708.39 + 1418.17*r.Float64()
		case u < 12:
			out[i] = -760 + 60*r.Float64()
		case u < 15:
			out[i] = nudge(r, (float64(r.Intn(2100)-1076)+0.5)/math.Log2E)
		case u < 17:
			out[i] = math.Ldexp(1+r.Float64(), -r.Intn(1075))
			if r.Intn(2) == 0 {
				out[i] = -out[i]
			}
		case u < 19:
			out[i] = math.Float64frombits(r.Uint64())
		default:
			out[i] = elementwiseSpecials[r.Intn(len(elementwiseSpecials))]
		}
	}
	return out
}

// log1pEdges are log1p's boundaries: |x| = 2^-54 and 2^-29, √2−1 and
// √2/2−1, -1 and 1 and 2^53; and inputs whose 1+x is a power of two
// or sits on the renormalisation's √2 boundary, or just below a power
// of two, where the mantissa it keeps (iu) is 0.
func log1pEdges() []float64 {
	const (
		sqrt2M1     = 4.142135623730950488017e-01
		sqrt2HalfM1 = -2.928932188134524755992e-01
	)
	var out []float64
	for _, x := range []float64{0x1p-54, -0x1p-54, 0x1p-29, -0x1p-29, sqrt2M1, -sqrt2M1, sqrt2HalfM1,
		-1, 1, 0x1p53, 3, 0.5, -0.5} {
		out = append(out, around(x, 3)...)
	}
	for _, j := range []int{-1, 1, 2, 20, 52} {
		p := math.Ldexp(1, j)
		out = append(out, around(p-1, 2)...)
		out = append(out, around(p*math.Sqrt2-1, 2)...)
	}
	return append(out, elementwiseSpecials...)
}

// log1pInputs returns n seeded arguments of math.Log1p: a fifth in the
// losses' range, exp(-|z|) for |z| <= 20, a fifth over (-1, 3), a fifth
// of magnitudes 2^-60 to 2^60 (above -1), and the rest just above -1,
// near log1p's boundaries, near powers of two (and √2 times them) less
// one, of any bits at all, and special.
func log1pInputs(r *rng.RNG, n int) []float64 {
	edges := []float64{0x1p-54, 0x1p-29, 4.142135623730950488017e-01, -2.928932188134524755992e-01, 1, 0x1p53}
	out := make([]float64, n)
	for i := range out {
		switch u := r.Intn(20); {
		case u < 4:
			out[i] = math.Exp(-20 * r.Float64())
		case u < 8:
			out[i] = -1 + 4*r.Float64()
		case u < 12:
			out[i] = math.Ldexp(1+r.Float64(), r.Intn(121)-60)
			if out[i] < 1 && r.Intn(2) == 0 {
				out[i] = -out[i]
			}
		case u < 13:
			out[i] = -1 + math.Ldexp(1+r.Float64(), -1-r.Intn(53))
		case u < 15:
			out[i] = nudge(r, edges[r.Intn(len(edges))])
		case u < 18:
			p := math.Ldexp(1, r.Intn(55)-1)
			if r.Intn(2) == 0 {
				p *= math.Sqrt2
			}
			out[i] = nudge(r, p-1)
		case u < 19:
			out[i] = math.Float64frombits(r.Uint64())
		default:
			out[i] = elementwiseSpecials[r.Intn(len(elementwiseSpecials))]
		}
	}
	return out
}

// requireScalarBits fails unless got[i] has ref(src[i])'s bits, NaN
// payload included, for every i.
func requireScalarBits(t *testing.T, tag string, ref func(float64) float64, got, src []float64) {
	t.Helper()
	for i, x := range src {
		if want := ref(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: element %d of %d, x = %v (%#016x): %v (%#016x), want %v (%#016x)", tag, i, len(src),
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpLog1pMatchMath: Exp and Log1p against math.Exp and math.Log1p
// at every level, on 2^20 seeded inputs and every boundary as one
// vector, the same again in place, and every edge at every position of
// vectors 1 to 13 long (three whole groups and each partial last one)
// at four alignments among values inside the vector range.
func TestExpLog1pMatchMath(t *testing.T) { atEveryLevel(t, testExpLog1pMatchMath) }

func testExpLog1pMatchMath(t *testing.T) {
	for fi, fn := range elementwise {
		r := rng.New(uint64(211 + fi))
		src := append(fn.inputs(r, 1<<20), fn.edges()...)
		got := make([]float64, len(src))
		fn.run(got, src)
		requireScalarBits(t, fn.name, fn.ref, got, src)
		copy(got, src)
		fn.run(got, got)
		requireScalarBits(t, fn.name+" in place", fn.ref, got, src)

		buf := make([]float64, 13+maxDiffOffset)
		out := make([]float64, len(buf))
		for _, x := range fn.edges() {
			for n := 1; n <= 13; n++ {
				for off := 0; off <= maxDiffOffset; off++ {
					for p := 0; p < n; p++ {
						v := buf[off : off+n]
						for i := range v {
							v[i] = 0.25 * float64(i%7)
						}
						v[p] = x
						fn.run(out[:n], v)
						requireScalarBits(t, fmt.Sprintf("%s n=%d off=%d p=%d", fn.name, n, off, p), fn.ref, out[:n], v)
					}
				}
			}
		}
	}
}

// TestElementwiseKernelsRefuseWholeGroups: expAVX2 and log1pAVX2 stop
// in front of the group of four holding an input they leave to the
// scalar call — at every position of a whole group and of a partial
// last one — having written every group before it and nothing of it
// or after it.
func TestElementwiseKernelsRefuseWholeGroups(t *testing.T) {
	if hostLevel() < levelAVX2 {
		t.Skip("no AVX2 kernels here")
	}
	type kernel struct {
		name    string
		run     func(dst, src []float64) int
		ref     func(float64) float64
		outside []float64
	}
	kernels := []kernel{{"log1pAVX2", log1pAVX2, math.Log1p, []float64{-1, -2, math.NaN(), math.Inf(1), 0x1p53, math.MaxFloat64}}}
	if hasFMA {
		kernels = append(kernels, kernel{"expAVX2", expAVX2, math.Exp,
			[]float64{math.NaN(), math.Inf(1), math.Inf(-1), 709.79, -708.75, -746, -1e300}})
	}
	const sentinel = 7.5
	for _, k := range kernels {
		for _, x := range k.outside {
			for n := 1; n <= 13; n++ {
				for p := 0; p < n; p++ {
					src, dst := make([]float64, n), make([]float64, n)
					for i := range src {
						src[i], dst[i] = 0.125*float64(i), sentinel
					}
					src[p] = x
					tag := fmt.Sprintf("%s x=%v n=%d p=%d", k.name, x, n, p)
					done := k.run(dst, src)
					if done != p&^3 {
						t.Fatalf("%s: done %d, want %d", tag, done, p&^3)
					}
					requireScalarBits(t, tag, k.ref, dst[:done], src[:done])
					for i, v := range dst[done:] {
						if v != sentinel {
							t.Fatalf("%s: element %d written (%v)", tag, done+i, v)
						}
					}
				}
			}
		}
	}
}
