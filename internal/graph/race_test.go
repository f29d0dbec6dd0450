//go:build race

package graph

// The race detector's sync.Pool drops a share of what is put back, at
// random, so under it an allocation count includes refills that are
// not the code's.
func init() { raceDetector = true }
