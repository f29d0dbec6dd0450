package main

import "time"

// The host is a few hardware threads of a shared machine, and how
// fast one of them runs changes by 1.2-1.6x for seconds to minutes at
// a time (sibling thread busy or idle, clock up or down): measured,
// the same single-threaded loop takes 4.9, 5.9 or 8-9 ms, and a
// memory-streaming loop moves by the same factor at the same moments.
// No statistic inside a run removes a slow spell that outlasts the
// run, so every gated time is divided by the speed of the host at that
// moment, read off a fixed piece of work of the benchmark's own: the
// reference kernel below, run for a few milliseconds between timed
// windows (training steps, load windows, set-ups) while nothing else
// of the benchmark runs.
//
// A gated time is reported as   measured x refNominal / reference
// where reference is the kernel's time next to the measurement: the
// time the program would have taken on a host on which the kernel
// takes refNominal. The kernel is no code of the repository, so no
// change under test can move it.

// refNominal is about what the kernel reads beside the workloads on
// this class of host on an ordinary day (Xeon 2.1 GHz VM, Go 1.24:
// 0.65 ms at best, 0.7-0.8 ms between training steps, 0.9-1.1 ms
// between bursts of serving load), so that normalised numbers read
// like plainly measured ones. Changing it rescales every gated time:
// a new baseline is needed.
const refNominal = 800 * time.Microsecond

const (
	refN      = 96      // the kernel multiplies two refN x refN matrices,
	refTable  = 1 << 19 // gathers from and streams over a 4 MB table
	refGather = 40000
	refStream = 1 << 17
)

// refKernel is the fixed piece of work: arithmetic on cache-resident
// data, dependent random reads and a sequential read, the mix of a
// training step or a table scan.
type refKernel struct {
	a, b, c []float64
	table   []float64
	sink    float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a: make([]float64, refN*refN), b: make([]float64, refN*refN), c: make([]float64, refN*refN),
		table: make([]float64, refTable),
	}
	for i := range k.a {
		k.a[i] = 1 / float64(i+1)
		k.b[i] = 1 / float64(2*i+1)
	}
	for i := range k.table {
		k.table[i] = float64(i & 1023)
	}
	return k
}

func (k *refKernel) pass() {
	n := refN
	for i := range k.c {
		k.c[i] = 0
	}
	for i := 0; i < n; i++ {
		ci := k.c[i*n : i*n+n]
		for p := 0; p < n; p++ {
			aip := k.a[i*n+p]
			bp := k.b[p*n : p*n+n]
			for j := range ci {
				ci[j] += aip * bp[j]
			}
		}
	}
	s := k.c[n+1]
	x := uint32(12345)
	for i := 0; i < refGather; i++ {
		x = x*1664525 + 1013904223
		s += k.table[x>>13] // 19 bits: an index into the table
	}
	for _, v := range k.table[:refStream] {
		s += v
	}
	k.sink += s
}

// read times the kernel: one pass to bring its data back into the
// caches the program under test has just filled, then the mean of two
// timed passes.
func (k *refKernel) read() time.Duration {
	k.pass()
	t0 := time.Now()
	k.pass()
	k.pass()
	return time.Since(t0) / 2
}

// normalise converts a measured time (or a quantity proportional to
// one, in any unit) to the nominal host, given the mean of the
// reference readings taken around it.
func normalise(measured float64, ref time.Duration) float64 {
	return measured * float64(refNominal) / float64(ref)
}

func meanDuration(ds ...time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
