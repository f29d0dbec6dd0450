package mat

import "testing"

// withoutAVX2 runs the rest of t on the portable loops — the only path
// on arm64 or on an amd64 host without AVX2 — and puts the CPU's
// answer back when t ends. The switch is the package's, so t must not
// be parallel.
func withoutAVX2(t *testing.T) {
	saved := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = saved })
}
