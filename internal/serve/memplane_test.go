package serve

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// memPlaneDtypes are the non-default resident representations the
// exactness matrix sweeps.
var memPlaneDtypes = []mat.Dtype{mat.DtypeF32, mat.DtypeI8PQ}

// TestMemPlaneExactByteIdentity is the memory plane's acceptance bar:
// in exact mode, /embed, /predict and /topk answers are byte-identical
// to the f64 baseline at every dtype × Workers × shard-count
// combination — changing the resident representation can never change
// an exact answer, because exact reads always go to float64 rows.
func TestMemPlaneExactByteIdentity(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	ref := NewServer(ds, Options{Workers: 2})
	defer ref.Close()
	if _, err := ref.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()

	paths := []string{
		"/embed?ids=0,7,42,299",
		"/predict?ids=0,7,42,299",
		"/predict?ids=123",
		"/topk?id=7&k=10&mode=exact",
		"/topk?id=0&k=25&mode=exact",
		"/topk?id=299&k=1&mode=exact",
		"/topk?id=nope", // error surfaces must match too
	}
	want := make(map[string]string)
	wantCode := make(map[string]int)
	for _, p := range paths {
		code, body := get(t, refTS.URL+p)
		want[p] = string(body)
		wantCode[p] = code
	}

	for _, dtype := range memPlaneDtypes {
		for _, shards := range []int{1, 2} {
			for _, workers := range []int{1, 3} {
				rt := newTestRouter(t, Options{Workers: workers, Dtype: dtype}, shards, 99, ckpt)
				ts := httptest.NewServer(rt)
				for _, p := range paths {
					code, body := get(t, ts.URL+p)
					if code != wantCode[p] {
						t.Errorf("dtype=%s shards=%d workers=%d %s: status %d, f64 baseline %d",
							dtype, shards, workers, p, code, wantCode[p])
					}
					if string(body) != want[p] {
						t.Errorf("dtype=%s shards=%d workers=%d %s:\n got  %s\n want %s",
							dtype, shards, workers, p, body, want[p])
					}
				}
				ts.Close()
				rt.Close()
			}
		}
	}
}

// TestMemPlaneAnnScoresAreExact pins the rerank contract over the
// serving surface: in ann mode on a quantized dtype, every reported
// neighbor score is bit-identical to the exact scanner's score for
// that row — quantization bounds recall, never score fidelity.
func TestMemPlaneAnnScoresAreExact(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)

	exact := NewEngine(ds, Options{Workers: 2})
	if _, err := exact.Install(m); err != nil {
		t.Fatal(err)
	}
	for _, dtype := range memPlaneDtypes {
		eng := NewEngine(ds, Options{Workers: 2, Dtype: dtype})
		if _, err := eng.Install(m); err != nil {
			t.Fatal(err)
		}
		st, _ := eng.Snapshot()
		if st.quant == nil || st.quant.Dtype() != dtype {
			t.Fatalf("dtype=%s: no quantized plane resident", dtype)
		}
		for _, q := range []int{0, 42, 299} {
			full, err := exact.TopKWith(q, ds.G.NumVertices()-1, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			bits := make(map[int]uint64, len(full.Neighbors))
			for _, nb := range full.Neighbors {
				bits[nb.ID] = math.Float64bits(nb.Score)
			}
			res, err := eng.TopKWith(q, 10, ModeANN, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != ModeANN || len(res.Neighbors) != 10 {
				t.Fatalf("dtype=%s q=%d: mode %q with %d neighbors", dtype, q, res.Mode, len(res.Neighbors))
			}
			for i, nb := range res.Neighbors {
				wantBits, ok := bits[nb.ID]
				if !ok || math.Float64bits(nb.Score) != wantBits {
					t.Fatalf("dtype=%s q=%d rank %d: score %v for id %d is not the exact scanner's",
						dtype, q, i, nb.Score, nb.ID)
				}
			}
		}
	}
}

// TestMemPlaneHealthzAndResident checks the observability surface: the
// dtype shows up in /healthz, resident accounting is positive, and the
// mmap-backed int8-PQ plane shrinks the private working set at least
// 3x against the decoded f64 table (decoded quantized servers keep the
// exact f64 rows on the heap by design, so the memory win requires the
// mapping).
func TestMemPlaneHealthzAndResident(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)

	scrape := func(opts Options) Health {
		t.Helper()
		srv := NewServer(ds, opts)
		defer srv.Close()
		if _, err := srv.Install(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		var health Health
		if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		return health
	}

	// Decoded-heap servers: dtype reported, resident positive, nothing
	// mapped; the quantized payload rides on top of the f64 table.
	resident := map[mat.Dtype]int64{}
	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ} {
		health := scrape(Options{Workers: 2, Dtype: dtype})
		if health.Dtype != dtype.String() {
			t.Errorf("healthz dtype = %q, want %q", health.Dtype, dtype)
		}
		if health.ResidentB <= 0 {
			t.Errorf("dtype=%s: resident_bytes = %d", dtype, health.ResidentB)
		}
		if health.MappedB != 0 {
			t.Errorf("dtype=%s: decoded-heap server reports mapped_bytes = %d", dtype, health.MappedB)
		}
		resident[dtype] = health.ResidentB
	}
	if resident[mat.DtypeI8PQ] <= resident[mat.DtypeF64] {
		t.Errorf("decoded i8pq resident %d should exceed the bare f64 %d (table plus codes)",
			resident[mat.DtypeI8PQ], resident[mat.DtypeF64])
	}

	// The mmap-backed i8pq server: the f64 table lives in the mapping,
	// so the private working set drops at least 3x under the f64
	// baseline.
	snap, err := BuildSnapshot(ds, m, Options{Workers: 2, Dtype: mat.DtypeI8PQ}, false)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.art"
	if _, err := artifact.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	health := scrape(Options{Workers: 2, Dtype: mat.DtypeI8PQ, ArtifactPath: path})
	if !health.WarmStart || health.Dtype != "i8pq" {
		t.Fatalf("mmap server did not warm-start as i8pq: %+v", health)
	}
	if health.MappedB <= 0 {
		t.Errorf("mmap server reports mapped_bytes = %d", health.MappedB)
	}
	if 3*health.ResidentB > resident[mat.DtypeF64] {
		t.Errorf("mmap i8pq resident %d bytes is not 3x under the f64 baseline %d",
			health.ResidentB, resident[mat.DtypeF64])
	}
}

// TestMemPlaneWarmMmapServesIdentically is the mmap half of the
// tentpole: a server warm-started from a memory-mapped i8pq artifact
// adopts the mapping (mapped bytes reported, f64 table not duplicated
// on the heap) and serves exact answers bit-identical to a cold
// f64 engine.
func TestMemPlaneWarmMmapServesIdentically(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)

	cold := NewEngine(ds, Options{Workers: 2, ANN: true})
	if _, err := cold.Install(m); err != nil {
		t.Fatal(err)
	}

	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeI8PQ} {
		opts := Options{Workers: 2, ANN: true, Dtype: dtype}
		snap, err := BuildSnapshot(ds, m, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/m.art"
		if _, err := artifact.WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
		opts.ArtifactPath = path
		warm := NewEngine(ds, opts)
		if _, err := warm.Install(m); err != nil {
			t.Fatal(err)
		}
		st, _ := warm.Snapshot()
		if !st.WarmStart || st.WarmNote != "" {
			t.Fatalf("dtype=%s: mmap warm start failed: warm=%v note=%q", dtype, st.WarmStart, st.WarmNote)
		}
		if st.MappedBytes() <= 0 || st.art == nil {
			t.Fatalf("dtype=%s: snapshot does not hold the mapping", dtype)
		}
		in, ok := mappedFrom(t, &st.Emb.Row(0)[0], path)
		if !ok {
			t.Logf("dtype=%s: no /proc/self/maps on this host; the row's address is not checked", dtype)
		} else if !in {
			t.Fatalf("dtype=%s: the table's first row lies outside the artifact's mapping", dtype)
		}
		if st.Dtype() != dtype {
			t.Fatalf("dtype=%s: snapshot reports %s", dtype, st.Dtype())
		}
		if dtype == mat.DtypeI8PQ && st.quant == nil {
			t.Fatal("i8pq mapping did not adopt the persisted codebook")
		}

		for _, q := range []int{0, 150, 299} {
			a, err := cold.TopKWith(q, 10, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := warm.TopKWith(q, 10, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Neighbors {
				if a.Neighbors[i] != b.Neighbors[i] {
					t.Fatalf("dtype=%s q=%d rank %d: cold %+v mmap %+v", dtype, q, i, a.Neighbors[i], b.Neighbors[i])
				}
			}
			ea, _ := cold.Embed([]int{q})
			eb, _ := warm.Embed([]int{q})
			for j := range ea.Vectors[0] {
				if math.Float64bits(ea.Vectors[0][j]) != math.Float64bits(eb.Vectors[0][j]) {
					t.Fatalf("dtype=%s q=%d: /embed differs at dim %d", dtype, q, j)
				}
			}
			pa, _ := cold.Predict([]int{q})
			pb, _ := warm.Predict([]int{q})
			for j := range pa.Probs[0] {
				if math.Float64bits(pa.Probs[0][j]) != math.Float64bits(pb.Probs[0][j]) {
					t.Fatalf("dtype=%s q=%d: /predict differs at class %d", dtype, q, j)
				}
			}
		}

		// Reload against the unchanged file must reuse the mapping.
		if _, err := warm.Install(m); err != nil {
			t.Fatal(err)
		}
		st2, _ := warm.Snapshot()
		if st2.art != st.art {
			t.Fatalf("dtype=%s: reload remapped an unchanged artifact", dtype)
		}
	}
}

// mappedFrom reports whether p lies inside a mapping of the file at
// path, as /proc/self/maps lists them; ok is false where the host has
// no such table.
func mappedFrom(t *testing.T, p *float64, path string) (in, ok bool) {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return false, false
	}
	path, err = filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(uintptr(unsafe.Pointer(p)))
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || strings.Join(f[5:], " ") != path {
			continue
		}
		lo, hi, _ := strings.Cut(f[0], "-")
		a, errA := strconv.ParseUint(lo, 16, 64)
		b, errB := strconv.ParseUint(hi, 16, 64)
		if errA == nil && errB == nil && a <= addr && addr < b {
			return true, true
		}
	}
	return false, true
}

// TestMemPlaneAnnHostileNumbers is ROADMAP 1-ii for the quantized walk
// as the serving layer runs it (shardTopK, the probe that takes a query
// vector from outside the snapshot): over seeded mixtures of NaN, ±Inf,
// ±0 and subnormal elements in the compact table, in the norms and in
// the query vector and its norm — the entry point's row all NaN every
// third trial — a mode=ann probe never panics, never hangs, and answers
// at most k distinct owned ids, none the excluded one, none scored NaN,
// in ann.Before order. The outcome per input is the one
// ann.TestSearchQuantHostileNumbers spells out for the beam; what the
// exact rerank adds is that a hostile number in the compact table can
// change which rows are answered and never a score: every score is the
// exact scanner's bits for that row over the same snapshot — a row with
// a NaN or zero norm scores 0 in both, a zero or NaN-normed query
// scores every row 0 in both, and a NaN query with a finite norm, which
// the exact scan answers with nothing, gets nothing here either.
func TestMemPlaneAnnHostileNumbers(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	nan, inf := math.NaN(), math.Inf(1)
	hostile := []float64{nan, inf, -inf, 0, math.Copysign(0, -1), 5e-324}
	for _, dtype := range memPlaneDtypes {
		for _, opts := range []Options{{Workers: 2, Dtype: dtype}, {Workers: 2, Dtype: dtype, shards: 2, shard: 1, shardSeed: 5}} {
			eng := NewEngine(ds, opts)
			if _, err := eng.Install(m); err != nil {
				t.Fatal(err)
			}
			st, _ := eng.Snapshot()
			entry := int(eng.annIndex(st).Stats().Entry)
			n, dim := st.Emb.NumRows(), st.Dim()
			r := rng.New(7)
			for trial := 0; trial < 40; trial++ {
				// A snapshot over the same exact rows whose compact table
				// and norms took some hostile numbers.
				bad := eng.newState(m, st.Emb, append([]float64(nil), st.norms...))
				bad.setIndex(eng.annIndex(st))
				var elems []float64 // the compact table's numbers, poisoned in place
				switch qt := st.quant.(type) {
				case *mat.F32Table:
					cp := *qt
					cp.Data = append([]float32(nil), qt.Data...)
					bad.quant = &cp
					for i := r.Intn(30); i > 0; i-- {
						cp.Data[r.Intn(len(cp.Data))] = float32(hostile[r.Intn(len(hostile))])
					}
					if trial%3 == 0 {
						for j := 0; j < dim; j++ {
							cp.Data[entry*dim+j] = float32(nan)
						}
					}
				case *mat.PQTable:
					cp := *qt
					cp.Centroids = append([]float64(nil), qt.Centroids...)
					bad.quant, elems = &cp, cp.Centroids
					for i := r.Intn(30); i > 0; i-- {
						elems[r.Intn(len(elems))] = hostile[r.Intn(len(hostile))]
					}
					if trial%3 == 0 { // the centroid the entry point is coded with in subspace 0
						elems[int(cp.Codes[entry*cp.Params.M])*(dim/cp.Params.M)] = nan
					}
				}
				for i := r.Intn(10); i > 0; i-- {
					bad.norms[r.Intn(n)] = hostile[r.Intn(len(hostile))]
				}
				row := r.Intn(n)
				q, qn := append([]float64(nil), st.Emb.Row(row)...), st.norms[row]
				switch trial % 4 {
				case 1:
					q[r.Intn(dim)] = hostile[r.Intn(len(hostile))]
				case 2:
					qn = hostile[r.Intn(len(hostile))]
				case 3:
					q, qn = make([]float64, dim), 0
				}
				exclude, k, ef := st.globalID(row), 1+r.Intn(12), 16+r.Intn(48)

				exact := map[int]uint64{}
				for _, nb := range scanVec(bad, q, qn, exclude, n, 1) {
					exact[nb.ID] = math.Float64bits(nb.Score)
				}
				got := eng.shardTopK(bad, q, qn, topkQuery{id: exclude, k: k, ann: true, ef: ef})
				if len(got) > k {
					t.Fatalf("%s shards=%d trial %d: %d neighbors for k=%d", dtype, opts.shards, trial, len(got), k)
				}
				for i, nb := range got {
					bits, ok := exact[nb.ID]
					if !ok || nb.ID == exclude || math.IsNaN(nb.Score) || math.Float64bits(nb.Score) != bits {
						t.Fatalf("%s shards=%d trial %d rank %d: %+v is not a row the exact scan scores, or not with its score", dtype, opts.shards, trial, i, nb)
					}
					if i > 0 && !ann.Before(got[i-1].Score, int32(got[i-1].ID), nb.Score, int32(nb.ID)) {
						t.Fatalf("%s shards=%d trial %d: neighbors not in ann.Before order at rank %d", dtype, opts.shards, trial, i)
					}
				}
			}
		}
	}
}
