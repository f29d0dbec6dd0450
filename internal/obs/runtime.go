package obs

import (
	"runtime/debug"
	"runtime/metrics"
)

// runtimeSeries are the Go runtime's own numbers RegisterRuntime
// exports: the family, its runtime/metrics name, whether it is a
// counter, and its help text.
var runtimeSeries = []struct {
	family, name string
	counter      bool
	help         string
}{
	{"gsgcn_go_goroutines", "/sched/goroutines:goroutines", false,
		"Goroutines that currently exist in the process."},
	{"gsgcn_go_gomaxprocs", "/sched/gomaxprocs:threads", false,
		"GOMAXPROCS: operating-system threads that can run Go code at once."},
	{"gsgcn_go_heap_alloc_bytes_total", "/gc/heap/allocs:bytes", true,
		"Bytes allocated on the Go heap since the process started; its rate over the answers' rate is the garbage an answer makes."},
	{"gsgcn_go_heap_live_bytes", "/gc/heap/live:bytes", false,
		"Heap bytes the last garbage collection marked live."},
	{"gsgcn_go_gc_cycles_total", "/gc/cycles/total:gc-cycles", true,
		"Garbage-collection cycles completed since the process started."},
}

// RegisterRuntime exports the process's Go runtime numbers into r, each
// read from runtime/metrics when a scrape renders it and never
// otherwise, with no label, plus gsgcn_build_info: one series, always
// 1, labeled with the commit the binary was built from ("unknown"
// without version-control information) and its Go version. Every label
// value is fixed when the process starts, so the series count never
// grows. The numbers describe the whole process, so a process calls it
// once, on the registry its scrape renders.
func RegisterRuntime(r *Registry) {
	for _, rs := range runtimeSeries {
		name := rs.name
		read := func() float64 {
			sample := []metrics.Sample{{Name: name}}
			metrics.Read(sample)
			if sample[0].Value.Kind() != metrics.KindUint64 {
				return 0
			}
			return float64(sample[0].Value.Uint64())
		}
		if rs.counter {
			r.CounterFunc(rs.family, rs.help, nil, read)
		} else {
			r.GaugeFunc(rs.family, rs.help, nil, read)
		}
	}
	commit, goVersion := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				commit = kv.Value
			}
		}
	}
	r.Gauge("gsgcn_build_info", "Always 1, labeled with the commit the binary was built from and its Go version.",
		map[string]string{"commit": commit, "go": goVersion}).Set(1)
}
