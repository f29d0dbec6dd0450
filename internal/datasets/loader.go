package datasets

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
)

// The .gsg container is a line-oriented text format:
//
//	gsgcn-dataset <name> vertices=V edges=E features=F classes=C multi=BOOL
//	[edges]     one "u v" pair per line, each undirected edge once
//	[features]  V lines of F space-separated floats
//	[labels]    V lines of space-separated active class ids
//	[train] / [val] / [test]   one vertex id per line
//
// Write writes a dataset in this format; Read parses it back. The
// format exists so generated datasets can be inspected, diffed and
// consumed by external tooling.

// Write serializes ds to w.
func Write(ds *Dataset, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := ds.G.NumVertices()
	fmt.Fprintf(bw, "gsgcn-dataset %s vertices=%d edges=%d features=%d classes=%d multi=%v\n",
		ds.Name, n, ds.G.NumEdges(), ds.FeatureDim(), ds.NumClasses, ds.MultiLabel)
	fmt.Fprintln(bw, "[edges]")
	for v := int32(0); v < int32(n); v++ {
		for _, u := range ds.G.Neighbors(v) {
			if v < u {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	fmt.Fprintln(bw, "[features]")
	for v := 0; v < n; v++ {
		for j, x := range ds.Features.Row(v) {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", x)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "[labels]")
	for v := 0; v < n; v++ {
		first := true
		for c, x := range ds.Labels.Row(v) {
			if x == 1 {
				if !first {
					bw.WriteByte(' ')
				}
				fmt.Fprintf(bw, "%d", c)
				first = false
			}
		}
		bw.WriteByte('\n')
	}
	for _, part := range []struct {
		name string
		idx  []int32
	}{{"train", ds.TrainIdx}, {"val", ds.ValIdx}, {"test", ds.TestIdx}} {
		fmt.Fprintf(bw, "[%s]\n", part.name)
		for _, v := range part.idx {
			fmt.Fprintf(bw, "%d\n", v)
		}
	}
	return bw.Flush()
}

// Read parses a dataset previously serialized by Write. A feature
// that is not a finite number — NaN, ±Inf, or one out of float64's
// range — is an error naming its vertex and column: training assumes
// finite values (see nn.Ctx.Rows), and a NaN it met would spread into
// the weights unseen.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("datasets: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 2 || header[0] != "gsgcn-dataset" {
		return nil, fmt.Errorf("datasets: bad header %q", sc.Text())
	}
	name := header[1]
	meta := map[string]string{}
	for _, kv := range header[2:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) == 2 {
			meta[parts[0]] = parts[1]
		}
	}
	atoi := func(key string) (int, error) {
		v, err := strconv.Atoi(meta[key])
		if err != nil {
			return 0, fmt.Errorf("datasets: header field %s=%q: %w", key, meta[key], err)
		}
		return v, nil
	}
	n, err := atoi("vertices")
	if err != nil {
		return nil, err
	}
	f, err := atoi("features")
	if err != nil {
		return nil, err
	}
	k, err := atoi("classes")
	if err != nil {
		return nil, err
	}
	multi := meta["multi"] == "true"

	expect := func(section string) error {
		if !sc.Scan() || sc.Text() != "["+section+"]" {
			return fmt.Errorf("datasets: expected [%s], got %q", section, sc.Text())
		}
		return nil
	}

	if err := expect("edges"); err != nil {
		return nil, err
	}
	var edges []graph.Edge
	for sc.Scan() {
		line := sc.Text()
		if line == "[features]" {
			break
		}
		var u, v int32
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("datasets: bad edge line %q: %w", line, err)
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}

	features := mat.New(n, f)
	for v := 0; v < n; v++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("datasets: truncated features at row %d", v)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != f {
			return nil, fmt.Errorf("datasets: feature row %d has %d values, want %d", v, len(fields), f)
		}
		row := features.Row(v)
		for j, s := range fields {
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("datasets: feature row %d col %d: %w", v, j, err)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("datasets: feature row %d col %d: %q is not a finite number", v, j, s)
			}
			row[j] = x
		}
	}

	if err := expect("labels"); err != nil {
		return nil, err
	}
	labels := mat.New(n, k)
	for v := 0; v < n; v++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("datasets: truncated labels at row %d", v)
		}
		for _, s := range strings.Fields(sc.Text()) {
			c, err := strconv.Atoi(s)
			if err != nil || c < 0 || c >= k {
				return nil, fmt.Errorf("datasets: label row %d has bad class %q", v, s)
			}
			labels.Set(v, c, 1)
		}
	}

	// Splits are the last three sections; parse them with lookahead.
	train, val, test, err := readThreeSplits(sc)
	if err != nil {
		return nil, err
	}

	ds := &Dataset{
		Name: name, G: g, Features: features, Labels: labels,
		Community: make([]int32, n), MultiLabel: multi, NumClasses: k,
		TrainIdx: train, ValIdx: val, TestIdx: test,
	}
	return ds, nil
}

// readThreeSplits consumes the [train]/[val]/[test] sections.
func readThreeSplits(sc *bufio.Scanner) (train, val, test []int32, err error) {
	sections := map[string]*[]int32{"train": &train, "val": &val, "test": &test}
	var current *[]int32
	seen := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			name := line[1 : len(line)-1]
			tgt, ok := sections[name]
			if !ok {
				return nil, nil, nil, fmt.Errorf("datasets: unexpected section %q", line)
			}
			current = tgt
			seen++
			continue
		}
		if current == nil {
			return nil, nil, nil, fmt.Errorf("datasets: split data before section header: %q", line)
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("datasets: bad split entry %q", line)
		}
		*current = append(*current, int32(v))
	}
	if seen != 3 {
		return nil, nil, nil, fmt.Errorf("datasets: found %d split sections, want 3", seen)
	}
	return train, val, test, nil
}

// WriteFile serializes ds to path.
func WriteFile(ds *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(ds, f)
}

// ReadFile parses a dataset from path.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
