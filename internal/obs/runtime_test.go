package obs

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestRuntimeSeriesReadAtScrape: RegisterRuntime's series are read when
// a scrape renders them — the heap allocation counter moves with what
// the process allocates between two scrapes, the GC cycle counter with
// a collection, GOMAXPROCS is the runtime's — and gsgcn_build_info is
// one series, 1, naming this binary's Go version.
func TestRuntimeSeriesReadAtScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	scrape := func() string {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	value := func(text, series string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				var v float64
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("scrape has no series %s:\n%s", series, text)
		return 0
	}
	first := scrape()
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 64<<10)
	}
	runtime.GC()
	second := scrape()
	if a, b := value(first, "gsgcn_go_heap_alloc_bytes_total"), value(second, "gsgcn_go_heap_alloc_bytes_total"); b-a < float64(len(sink)<<16) {
		t.Errorf("heap allocations moved %v -> %v across %d KB of allocation", a, b, len(sink)<<6)
	}
	if a, b := value(first, "gsgcn_go_gc_cycles_total"), value(second, "gsgcn_go_gc_cycles_total"); b <= a {
		t.Errorf("GC cycles %v -> %v across runtime.GC", a, b)
	}
	if got := value(second, "gsgcn_go_gomaxprocs"); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("gsgcn_go_gomaxprocs %v, GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := value(second, "gsgcn_go_goroutines"); got < 1 {
		t.Errorf("gsgcn_go_goroutines %v", got)
	}
	if got := value(second, "gsgcn_go_heap_live_bytes"); got <= 0 {
		t.Errorf("gsgcn_go_heap_live_bytes %v", got)
	}
	if n := strings.Count(second, "\ngsgcn_build_info{"); n != 1 {
		t.Errorf("%d gsgcn_build_info series, want 1", n)
	}
	if !strings.Contains(second, `,go="`+runtime.Version()+`"} 1`) {
		t.Errorf("gsgcn_build_info does not name %s:\n%s", runtime.Version(), second)
	}
	runtime.KeepAlive(sink)
}
