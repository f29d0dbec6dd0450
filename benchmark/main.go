// Command benchmark is the repository's one benchmark: five named
// workloads over the training library and a real gsgcn-serve
// subprocess, four gated end-to-end metrics per workload and a
// per-layer budget from a separate traced run. See README.md.
//
//	go run ./benchmark                                  every workload, 15 s each
//	go run ./benchmark -workload serve_topk -seed 7     one workload
//	go run ./benchmark -quick                           smoke run, numbers not comparable
//	go run ./benchmark -trace 1                         the per-layer (traced) run
//	go run ./benchmark -out a.jsonl                     append results for -compare
//	go run ./benchmark -compare a.jsonl b.jsonl         apply the bounds to two result files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workRoot holds everything the benchmark writes: built binaries,
// cached fixtures, per-run scratch and span files. It is relative to
// the repo root, which must be the working directory.
const workRoot = ".bench_build/gsgcn-bench"

// runTimeout bounds one workload run, fixtures and checks included.
const runTimeout = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo is the fingerprint recorded with every result; numbers
// from different hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// result is one run of one workload, as appended to the -out file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Quick     bool                   `json:"quick"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailedBy  map[string]int64       `json:"failed_by,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Problems  []string               `json:"problems,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Host      hostInfo               `json:"host"`
}

// runCtx is what a workload gets to run with and report into.
type runCtx struct {
	ctx     context.Context
	seed    uint64
	seconds float64 // measuring time
	quick   bool
	nproc   int
	runDir  string  // this run's scratch; removed when the run ends
	tr      *tracer // nil in the untraced run
	res     *result
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

// set records a metric with the number of samples behind it.
func (rc *runCtx) set(name string, v float64, n int) {
	rc.res.Metrics[name] = metricValue{Value: v}
	rc.res.Samples[name] = n
}

// ops adds operations attempted and, by class, failed.
func (rc *runCtx) ops(attempted int64, failedBy map[string]int64) {
	rc.res.Attempted += attempted
	for class, n := range failedBy {
		if n > 0 {
			rc.res.Failed += n
			rc.res.FailedBy[class] += n
		}
	}
}

// check records a correctness problem when ok is false.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if !ok {
		rc.res.Problems = append(rc.res.Problems, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) note(format string, args ...any) {
	rc.res.Notes = append(rc.res.Notes, fmt.Sprintf(format, args...))
}

// moreSetups says whether set-up is to be performed once more, so
// that setup_s can be a median: five times, and on up to fifteen
// while all of them together have taken under 2.5 s (a warm start of
// 0.1 s is the noisiest of the set-ups and the cheapest to repeat).
func (rc *runCtx) moreSetups(done int, began time.Time) bool {
	if rc.quick {
		return done < 1
	}
	return done < 5 || (done < 15 && time.Since(began) < 2500*time.Millisecond)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed for every generated input (training seed, request ids and kinds)")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time per workload, split over its phases")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written under "+workRoot+"/trace")
		quick    = flag.Bool("quick", false, "smoke run: ~1 s per phase, one set-up, checks on, numbers not comparable")
		out      = flag.String("out", "", "append one JSON line per workload run to this file (input to -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: baseline then candidate")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result files: baseline candidate"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %d", *trace))
	}
	secs := *seconds
	if *quick {
		secs = 3
	}
	if secs < 1 || secs > 60 {
		fatal(fmt.Errorf("-seconds wants 1..60, got %g", secs))
	}
	var todo []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		todo = []*workloadSpec{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want all or one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if err := checkRepoRoot(); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	allCorrect := true
	for _, w := range todo {
		res, err := runWorkload(ctx, w, *seed, secs, *trace == 1, *quick)
		if err != nil {
			// No result line: the run did not produce numbers.
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		printReport(os.Stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		fmt.Println(contractLine(res))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// checkRepoRoot verifies the working directory is the module root:
// the benchmark builds ./cmd/gsgcn-serve from there and keeps its
// work files under workRoot.
func checkRepoRoot() error {
	raw, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(raw), "module gsgcn\n") {
		return errors.New("run from the repository root (go run ./benchmark): no gsgcn go.mod in the working directory")
	}
	return nil
}

// runWorkload performs one run: scratch dir, the workload itself,
// span file, and the verdict. An error means the run could not be
// carried out at all; a run that completed with wrong answers or
// failed operations returns a result with Correct false.
func runWorkload(parent context.Context, w *workloadSpec, seed uint64, seconds float64, traced, quick bool) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, runTimeout)
	defer cancel()
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rc := &runCtx{
		ctx: ctx, seed: seed, seconds: seconds, quick: quick,
		nproc: runtime.NumCPU(), runDir: runDir,
		res: &result{
			Workload: w.Name, Seed: seed, Quick: quick, Seconds: seconds,
			FailedBy: map[string]int64{}, Metrics: map[string]metricValue{}, Samples: map[string]int{},
			Host: readHostInfo(),
		},
	}
	want := endToEnd
	if traced {
		rc.tr = newTracer()
		rc.res.Trace = 1
		want = perLayer
		// Layers a workload does not exercise read 0.
		for _, m := range perLayer {
			rc.set(m.Name, 0, 0)
		}
	}
	if err := w.run(rc); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, m := range want {
		mv, ok := rc.res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload did not report %s", m.Name)
		}
		mv.Unit = m.Unit
		rc.res.Metrics[m.Name] = mv
	}
	for name := range rc.res.Metrics {
		if rc.res.Metrics[name].Unit == "" {
			return nil, fmt.Errorf("workload reported unknown metric %s", name)
		}
	}
	if traced {
		dir := filepath.Join(workRoot, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.Name, seed))
		if err := rc.tr.writeFile(path); err != nil {
			return nil, err
		}
		rc.note("%d spans written to %s", rc.tr.count(), path)
	}
	rc.check(rc.res.Attempted >= 1, "no operation was attempted")
	rc.check(rc.res.Failed == 0, "%d of %d operations failed: %v", rc.res.Failed, rc.res.Attempted, rc.res.FailedBy)
	rc.res.Correct = len(rc.res.Problems) == 0
	return rc.res, nil
}

func readHostInfo() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// contractLine is the last line of a run's standard output: exactly
// correct, attempted, failed and the metrics of this kind of run.
func contractLine(res *result) string {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err) // only a NaN or Inf metric can do this
	}
	return string(raw)
}

func appendResult(path string, res *result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints every metric of the run by name with its unit,
// direction, sample count and (end-to-end only) regression bound.
func printReport(w *os.File, res *result) {
	kind, specs := "end-to-end", endToEnd
	if res.Trace == 1 {
		kind, specs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.0f s  %s", res.Workload, res.Seed, res.Seconds, kind)
	if res.Quick {
		fmt.Fprint(w, "  QUICK: numbers are not comparable")
	}
	fmt.Fprintf(w, "\n   host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		res.Host.CPU, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit)
	for _, m := range specs {
		mv := res.Metrics[m.Name]
		arrow := "lower is better"
		if m.Better == "higher" {
			arrow = "higher is better"
		}
		n := res.Samples[m.Name]
		switch {
		case res.Trace == 1 && n == 0:
			fmt.Fprintf(w, "   %-32s %14s %-8s not exercised by this workload\n", m.Name, "-", m.Unit)
		case res.Trace == 1:
			fmt.Fprintf(w, "   %-32s %14.6g %-8s %-16s n=%d\n", m.Name, mv.Value, m.Unit, arrow, n)
		default:
			fmt.Fprintf(w, "   %-32s %14.6g %-8s %-16s n=%-6d bound %.0f%%\n", m.Name, mv.Value, m.Unit, arrow, n, m.Bound*100)
		}
	}
	fmt.Fprintf(w, "   operations: attempted %d, ok %d, failed %d", res.Attempted, res.Attempted-res.Failed, res.Failed)
	classes := make([]string, 0, len(res.FailedBy))
	for c := range res.FailedBy {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, res.FailedBy[c])
	}
	fmt.Fprintln(w)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   WRONG: %s\n", p)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(w, "   checks: %s\n", verdict)
}
