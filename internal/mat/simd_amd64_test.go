package mat

import "testing"

// hostAVX2 and hostAVX512 are the level the CPU was found to have, kept
// apart from useAVX2 and useAVX512, which forceLevel moves.
var hostAVX2, hostAVX512 = useAVX2, useAVX512

// hostLevel is the highest kernel level this host runs.
func hostLevel() int {
	switch {
	case hostAVX512:
		return levelAVX512
	case hostAVX2:
		return levelAVX2
	}
	return levelGo
}

// forceLevel runs the rest of tb at kernel level lvl, which must not be
// above hostLevel, and puts the CPU's answer back when tb ends. The
// switch is the package's, so tb must not be parallel.
func forceLevel(tb testing.TB, lvl int) {
	saved2, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = lvl >= levelAVX2, lvl >= levelAVX512
	tb.Cleanup(func() { useAVX2, useAVX512 = saved2, saved512 })
}
