package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest value with at least p% of the samples at or
// below it. xs is sorted in place. An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value (mean of the two middle values for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so -compare
// computes the same spread the driver does. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one completed operation of a closed-loop phase.
type sample struct {
	end time.Duration // completion time since its burst of load began
	lat time.Duration
}

// windowStats summarises one load window of a phase.
type windowStats struct {
	n      int           // ok answers that completed inside their burst
	okAll  int           // and with those that completed while it drained
	qps    float64       // n / time under load
	p50    float64       // ms, of the n
	tail   float64       // ms, at the phase's tail percentile
	srvCPU cpuTimes      // the server's CPU time over the window
	srvRSS float64       // MB, the server's resident set size at its end
	ref    time.Duration // mean of the reference readings around its bursts
}

// summariseWindow counts the ok answers of a window of `slices` bursts
// of load of `slice` each, and takes the percentiles of those that
// completed before their burst's end; the ones that completed while it
// drained count in okAll alone.
func summariseWindow(samples []sample, slice time.Duration, slices int, tailPct float64) windowStats {
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.end < slice {
			lats = append(lats, ms(s.lat))
		}
	}
	return windowStats{
		n:     len(lats),
		okAll: len(samples),
		qps:   float64(len(lats)) / (float64(slices) * slice.Seconds()),
		p50:   percentile(lats, 50),
		tail:  percentile(lats, tailPct),
	}
}

// medianOver reports the median over windows of one quantity.
func medianOver(wins []windowStats, f func(windowStats) float64) float64 {
	xs := make([]float64, len(wins))
	for i, w := range wins {
		xs[i] = f(w)
	}
	return median(xs)
}
