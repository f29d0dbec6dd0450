//go:build !amd64

package mat

import "testing"

// withoutAVX2 has nothing to switch off: the portable loops are the
// only path here.
func withoutAVX2(t *testing.T) {}
