package ann

// Cross-commit pin for quantized beams (ISSUE 20). The worker-
// invariance and rerank suites compare one build against itself, and
// the serving pin has no quantized deployment, so a kernel change that
// moved an approximate score by one ulp — and with it which row wins a
// near-tie, and therefore an answer — would pass everything. The
// constants below were recorded at 47d22c0 (one dotFor call per ADC
// entry, one accumulator chain per row) on linux/amd64; a build whose
// ADC tables, PQ row sums or float32 row dots differ in any bit of any
// beam fails here. arm64 is not promised these bits (the compiler
// fuses multiply-add there), so the pin is asserted on amd64 only.

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"gsgcn/internal/mat"
)

var quantBeamPins = []struct {
	name     string
	rows     int // not a multiple of 4, so every worker split leaves a remainder
	dim      int
	quantize func(emb *mat.Dense) mat.Quantized
	crc      uint64 // CRC-64/ECMA over (id, Float64bits(score)) of every beam
}{
	{
		// The serving shape: dim 256 resolves to 128 subspaces of span
		// 2, every ADC entry a two-element sum below simdMinLen.
		name: "i8pq-dim256-span2", rows: 515, dim: 256,
		quantize: func(emb *mat.Dense) mat.Quantized {
			return mat.TrainPQ(emb, mat.ResolvePQ(emb.Rows, emb.Cols), 2)
		},
		crc: 0x74def37932b15be5,
	},
	{
		// Spans 5, 6, 5, 6: every entry goes through the SIMD dot, body
		// and tail.
		name: "i8pq-dim22-wide", rows: 1031, dim: 22,
		quantize: func(emb *mat.Dense) mat.Quantized {
			return mat.TrainPQ(emb, mat.PQParams{M: 4, K: 32, Iters: 4, Seed: 7}, 2)
		},
		crc: 0x32b6dc9b3ab1deb7,
	},
	{
		// Spans 2, 2, 3: an uneven split, offsets that a per-subspace
		// width cannot be hoisted out of.
		name: "i8pq-dim7-uneven", rows: 1031, dim: 7,
		quantize: func(emb *mat.Dense) mat.Quantized {
			return mat.TrainPQ(emb, mat.PQParams{M: 3, K: 255, Iters: 3, Seed: 11}, 2)
		},
		crc: 0x874a460debd58eda,
	},
	{
		// Spans 3, 4: one subspace on each side of simdMinLen.
		name: "i8pq-dim7-mixed", rows: 1031, dim: 7,
		quantize: func(emb *mat.Dense) mat.Quantized {
			return mat.TrainPQ(emb, mat.PQParams{M: 2, K: 16, Iters: 3, Seed: 13}, 2)
		},
		crc: 0x6304303433c4778f,
	},
	{
		name: "f32-dim256", rows: 515, dim: 256,
		quantize: func(emb *mat.Dense) mat.Quantized { return mat.ToF32(emb, 2) },
		crc:      0x35f14848622293fe,
	},
	{
		name: "f32-dim7", rows: 1031, dim: 7,
		quantize: func(emb *mat.Dense) mat.Quantized { return mat.ToF32(emb, 2) },
		crc:      0x7a954bba5947cde3,
	},
}

// walkBeamPins pins the beams of the walk that is served (ISSUE 21) —
// SearchQuant over Build's default index of the same tables, same
// query list — by quantBeamPins name. Recorded from the commit that
// introduced the walk, on linux/amd64: these move if a row's
// approximate score moves by an ulp (as above), if the walk visits or
// admits in another order, or if Build links the table differently.
// On tables this small the walk reaches every row of the flat scan's
// top 64, so five of the six equal the constants above — the walk's
// beam is the scan's beam, bit for bit; dim7-uneven is where it is not.
var walkBeamPins = map[string]uint64{
	"i8pq-dim256-span2": 0x74def37932b15be5,
	"i8pq-dim22-wide":   0x32b6dc9b3ab1deb7,
	"i8pq-dim7-uneven":  0x5d81c9c5b6ce805c,
	"i8pq-dim7-mixed":   0x6304303433c4778f,
	"f32-dim256":        0x35f14848622293fe,
	"f32-dim7":          0x7a954bba5947cde3,
}

// quantBeamCRC searches a fixed query list — table rows with themselves
// excluded, one with nothing excluded, and one vector that is no row —
// and folds every raw beam into one CRC.
func quantBeamCRC(search beamSearch, qt mat.Quantized, emb *mat.Dense, norms []float64) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	scan := func(q []float64, qn float64, exclude int32) {
		for _, c := range search(qt, q, qn, 64, exclude) {
			put(uint64(uint32(c.ID)))
			put(math.Float64bits(c.Score))
		}
	}
	n := emb.Rows
	for _, v := range []int{0, 1, 17, n / 3, n / 2, n - 2, n - 1} {
		scan(emb.Row(v), norms[v], int32(v))
	}
	scan(emb.Row(5), norms[5], -1)
	mix := make([]float64, emb.Cols)
	for j := range mix {
		mix[j] = 0.5*emb.At(3, j) - 0.25*emb.At(n-7, j)
	}
	scan(mix, math.Sqrt(mat.Dot(mix, mix)), -1)
	return h.Sum64()
}

func TestQuantBeamsPinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("quantized-beam pins are recorded on amd64")
	}
	for _, pin := range quantBeamPins {
		emb, norms := randTable(pin.rows, pin.dim, 16, 77)
		qt := pin.quantize(emb)
		for _, workers := range []int{1, 2, 4} {
			if got := quantBeamCRC(flatScan(norms, workers), qt, emb, norms); got != pin.crc {
				t.Errorf("%s workers=%d: beam CRC %#016x, pinned %#016x", pin.name, workers, got, pin.crc)
			}
		}
		ix := Build(emb, norms, Params{}, 2)
		if got, want := quantBeamCRC(ix.SearchQuant, qt, emb, norms), walkBeamPins[pin.name]; got != want {
			t.Errorf("%s: walk beam CRC %#016x, pinned %#016x", pin.name, got, want)
		}
	}
}
