package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"         // candidate median within the bound of the baseline's
	verdictWorse      = "worse"      // candidate median worse by more than the bound
	verdictUnresolved = "unresolved" // not worse, but a side's own spread exceeds the bound
)

// side summarises one file's runs of one (workload, metric) pair.
type side struct {
	n      int
	median float64
	spread float64 // (Q3 - Q1) / median; 0 when n < 2
}

func summarise(xs []float64) side {
	s := side{n: len(xs), median: median(append([]float64(nil), xs...))}
	if len(xs) >= 2 && s.median != 0 {
		q1, q3 := quartiles(xs)
		s.spread = (q3 - q1) / s.median
		if s.spread < 0 {
			s.spread = -s.spread
		}
	}
	return s
}

// judge applies a bound to a baseline and a candidate. worsening is
// the share of the baseline median by which the candidate is worse
// (negative when it is better).
func judge(m metricSpec, a, b side) (verdict string, worsening float64) {
	if a.median != 0 {
		worsening = (b.median - a.median) / a.median
		if m.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case worsening > m.Bound:
		return verdictWorse, worsening
	case a.spread > m.Bound || b.spread > m.Bound:
		return verdictUnresolved, worsening
	}
	return verdictOK, worsening
}

// readResults loads an -out file: one JSON result per line. Quick
// runs are dropped, their numbers are not comparable.
func readResults(path string) (res []*result, quick int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(result)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Quick {
			quick++
			continue
		}
		res = append(res, r)
	}
	return res, quick, sc.Err()
}

// pair names one (workload, metric) row.
type pair struct{ workload, metric string }

// collect gathers every metric value of the runs of one kind (trace 0
// or 1) by row.
func collect(res []*result, trace int) map[pair][]float64 {
	out := map[pair][]float64{}
	for _, r := range res {
		if r.Trace != trace {
			continue
		}
		for name, mv := range r.Metrics {
			k := pair{r.Workload, name}
			out[k] = append(out[k], mv.Value)
		}
	}
	return out
}

// compareFiles prints one row per (end-to-end metric, workload) pair
// present in both files with its verdict, then the per-layer medians
// side by side without one. It reports whether any row is worse.
func compareFiles(w io.Writer, basePath, candPath string) (anyWorse bool, err error) {
	base, qa, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, qb, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	if qa+qb > 0 {
		fmt.Fprintf(w, "ignored %d -quick runs: their numbers are not comparable\n", qa+qb)
	}
	if len(base) == 0 || len(cand) == 0 {
		return false, fmt.Errorf("nothing to compare: %d runs in %s, %d in %s", len(base), basePath, len(cand), candPath)
	}
	ha, hb := base[0].Host, cand[0].Host
	if ha.CPU != hb.CPU || ha.NumCPU != hb.NumCPU {
		return false, fmt.Errorf("different hosts (%s x%d vs %s x%d): the numbers are not comparable", ha.CPU, ha.NumCPU, hb.CPU, hb.NumCPU)
	}
	fmt.Fprintf(w, "baseline %s (commit %s), candidate %s (commit %s)\n", basePath, ha.Commit, candPath, hb.Commit)
	fmt.Fprintf(w, "change and bound are shares of the baseline median; spread is (Q3-Q1)/median of a side's own runs\n\n")
	fmt.Fprintf(w, "%-12s %-14s %-5s %3s %12s %3s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "n", "baseline", "n", "candidate", "change", "spr.a", "spr.b", "bound", "verdict")
	counts := map[string]int{}
	baseVals, candVals := collect(base, 0), collect(cand, 0)
	for _, wl := range workloads {
		for _, m := range endToEnd {
			av, bv := baseVals[pair{wl.Name, m.Name}], candVals[pair{wl.Name, m.Name}]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a, b := summarise(av), summarise(bv)
			verdict, worsening := judge(m, a, b)
			counts[verdict]++
			change := worsening
			if m.Better == "higher" {
				change = -worsening
			}
			fmt.Fprintf(w, "%-12s %-14s %-5s %3d %12.6g %3d %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, a.n, a.median, b.n, b.median, 100*change, 100*a.spread, 100*b.spread, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d worse, %d unresolved\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])

	header := false
	baseVals, candVals = collect(base, 1), collect(cand, 1)
	for _, wl := range workloads {
		for _, m := range perLayer {
			av, bv := baseVals[pair{wl.Name, m.Name}], candVals[pair{wl.Name, m.Name}]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a, b := summarise(av), summarise(bv)
			if a.median == 0 && b.median == 0 {
				continue // layer not exercised by this workload
			}
			if !header {
				fmt.Fprintf(w, "\nper-layer medians from the traced runs (no bound, no verdict)\n")
				header = true
			}
			change := "      -"
			if a.median != 0 {
				change = fmt.Sprintf("%+6.1f%%", 100*(b.median-a.median)/a.median)
			}
			fmt.Fprintf(w, "%-12s %-32s %-8s %3d %12.6g %3d %12.6g %s\n", wl.Name, m.Name, m.Unit, a.n, a.median, b.n, b.median, change)
		}
	}
	return counts[verdictWorse] > 0, nil
}
