//go:build !amd64

package mat

import "testing"

// hostLevel is the portable loops' here: there is no assembly.
func hostLevel() int { return levelGo }

// forceLevel has nothing to switch: the portable loops are the only
// path here.
func forceLevel(testing.TB, int) {}
