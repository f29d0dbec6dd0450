package core

// Cross-commit arithmetic pin (ISSUE 12). The exactness suites compare
// one build against itself — Workers=1 vs Workers=8, cold vs warm — so
// a kernel change that moved every answer by one ulp in the same
// direction would pass them all. The constants below were recorded at
// the commit before the SIMD kernels landed (72c444a, scalar Go loops
// in internal/mat) on linux/amd64; a build whose GEMM, propagation or
// optimizer arithmetic differs in any bit fails here. arm64 builds are
// not promised these bits (the Go compiler fuses multiply-add there),
// so the pin is asserted on amd64 only.

import (
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
)

type arithmeticPin struct {
	name     string
	multi    bool
	features int // tinyDataset's feature columns; 0 means its 16
	cfg      func() Config
	lossBits []uint64 // Float64bits of the first len(lossBits) Step losses
	embCRC   uint64   // CRC-64/ECMA of the full-graph embedding table after those steps
}

var arithmeticPins = []arithmeticPin{
	{
		// Hidden 16: rows of 16 and 32 — whole SIMD vectors, no tails —
		// with dropout, weight decay and clipping switched on.
		name: "tiny-h16-dropout",
		cfg: func() Config {
			c := tinyConfig()
			c.PInter = 3
			c.DropRate = 0.2
			c.WeightDecay = 1e-4
			c.GradClip = 5
			return c
		},
		lossBits: []uint64{
			0x3ffa65b79d299dcf, 0x3ff93e09aa7386c3, 0x3ff8123f69200733,
			0x3ff69209527d46c5, 0x3ff591ef73477b6d, 0x3ff3b24cc2bf5a46,
		},
		embCRC: 0xf2adf1deecc60d7f,
	},
	{
		// Hidden 37, multi-label: rows of 37 and 74 leave 1- and
		// 2-element scalar tails after the vector body.
		name:  "tiny-h37-multilabel",
		multi: true,
		cfg: func() Config {
			c := tinyConfig()
			c.Hidden = 37
			return c
		},
		lossBits: []uint64{
			0x400a55701b1e76ef, 0x40088d0af71ea2ab, 0x40085be1c701f0f2,
			0x400712299e8c764f, 0x4005c30bc0332344, 0x400474a817a005e8,
		},
		embCRC: 0xe88e153262310c58,
	},
	{
		// Hidden 8: both layers' products and weight gradients have
		// rows of 8, the width with a register-blocked kernel of its
		// own; dropout puts zeros among its alphas. Recorded at
		// 87c1d5f, before that kernel landed.
		name: "tiny-h8-dropout",
		cfg: func() Config {
			c := tinyConfig()
			c.Hidden = 8
			c.DropRate = 0.2
			return c
		},
		lossBits: []uint64{
			0x3ff9269ce90bb89c, 0x3ff85e7bc66e6382, 0x3ff7a6ecc9c76742,
			0x3ff66f925a815251, 0x3ff67ca1538166ce, 0x3ff5fdc7320cc839,
		},
		embCRC: 0x2a974cef15274074,
	},
	{
		// 40 features, hidden 8: the first layer (40 -> 8) propagates
		// its output, A·(H·W_neigh), the second (16 -> 8) its input.
		// Recorded by the change that introduced that order (parent
		// 83f53fc, whose order gives other bits).
		name:     "tiny-wide-input",
		features: 40,
		cfg: func() Config {
			c := tinyConfig()
			c.Hidden = 8
			c.DropRate = 0.2
			return c
		},
		lossBits: []uint64{
			0x3ffac09ed9c08dc2, 0x3ffa427ff2213e57, 0x3ff998ac52e94ffb,
			0x3ff932bd5bf6d7ec, 0x3ff85e73d2504edc, 0x3ff81a9ed809dffe,
		},
		embCRC: 0xcb1a9f84a3b2fe89,
	},
}

// embeddingTable runs the GCN layers (not the head) over the whole
// training graph: the table a serving process would answer from.
func embeddingTable(ds *datasets.Dataset, m *Model) *mat.Dense {
	ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	x := ds.Features
	for _, l := range m.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

func TestArithmeticPinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits were recorded on amd64; other architectures may fuse multiply-add")
	}
	for _, pin := range arithmeticPins {
		t.Run(pin.name, func(t *testing.T) {
			features := pin.features
			if features == 0 {
				features = 16
			}
			ds := tinyDatasetOf(t, pin.multi, features)
			tr := NewTrainer(ds, NewModel(ds, pin.cfg()))
			for i, want := range pin.lossBits {
				if got := math.Float64bits(tr.Step()); got != want {
					t.Errorf("step %d: loss bits %#016x, pinned %#016x", i, got, want)
				}
			}
			h := crc64.New(weightsCRCTable)
			hashFloat64s(h, embeddingTable(ds, tr.Model).Data)
			if got := h.Sum64(); got != pin.embCRC {
				t.Errorf("embedding table CRC %#016x, pinned %#016x", got, pin.embCRC)
			}
		})
	}
}
