package ann

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gsgcn/internal/mat"
)

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool

// poisonedScratch returns the scratch a walk over every one of n
// vertices leaves before putScratch clears it — every visited bit set,
// every id recorded, every vertex in the memo, with a NaN score — with
// junk in each buffer a walk overwrites: ids' spare capacity, where
// the link gather writes ahead of what it keeps, full of -1 (no
// vertex); NaN scores; the misses' buffers full of ids, positions and
// scores of no batch; frontier and selector arrays full of candidates
// of no walk; and, when qt is not nil, a prepared query of a NaN
// vector, whose table or converted vector is NaN throughout.
func poisonedScratch(n int, qt mat.Quantized) *scratch {
	s := &scratch{visited: make([]uint64, (n+63)/64)}
	for i := range s.visited {
		s.visited[i] = ^uint64(0)
	}
	s.ids = make([]int32, n, 2*n+64)
	for v := range s.ids {
		s.ids[v] = int32(v)
	}
	for i := n; i < cap(s.ids); i++ {
		s.ids[:cap(s.ids)][i] = -1
	}
	for v := 0; v < n; v++ {
		s.memo.put(int32(v), math.NaN())
	}
	s.scores = make([]float64, 4*n)
	s.missOut = make([]float64, 4*n)
	for i := range s.scores {
		s.scores[i], s.missOut[i] = math.NaN(), math.NaN()
	}
	for i := 0; i < 4*n; i++ {
		s.missIDs = append(s.missIDs, int32(i%n))
		s.missAt = append(s.missAt, int32(4*n-i))
	}
	junk := make([]Candidate, 3*n)
	for i := range junk {
		junk[i] = Candidate{ID: int32(i % n), Score: float64(n - i)}
	}
	s.cand = heap{best: false, v: junk[:n]}
	s.res = TopK{k: n, h: heap{best: true, v: junk[n:]}}
	s.entry[0] = int32(n - 1)
	if qt != nil {
		nan := make([]float64, qt.NumCols())
		for j := range nan {
			nan[j] = math.NaN()
		}
		qt.Query(nan, &s.quant)
	}
	return s
}

// requireSameBeam compares two beams by id and Float64bits(score).
func requireSameBeam(t *testing.T, tag string, got, want []Candidate) {
	t.Helper()
	if !sameBeam(got, want) {
		t.Fatalf("%s: beam %v, want %v", tag, got, want)
	}
}

// TestPoisonedScratchNeverShows: a walk in a scratch that an earlier
// walk over every vertex left behind — released the way putScratch
// releases it — answers with the bits of a walk in freshly allocated
// state, for the f64 walk and the f32 and i8pq ones, at several beam
// widths and with and without an excluded vertex. The same poisoned
// scratch is then put back through the pool for Search and SearchQuant
// to draw. Without clearVisited the walk would find every vertex
// visited and answer with the entry point alone; without the memo's
// clear it would find every score NaN.
func TestPoisonedScratchNeverShows(t *testing.T) {
	emb, norms := randTable(700, 16, 8, 21)
	ix := Build(emb, norms, Params{}, 2)
	n := ix.Len()
	fresh := func() *scratch { return &scratch{visited: make([]uint64, (n+63)/64)} }
	qs := []int32{0, 42, 311, int32(n - 1)}
	for _, ef := range []int{8, 64, 200} {
		for _, v := range qs {
			for _, ex := range []int32{v, -1} {
				tag := fmt.Sprintf("f64 ef %d query %d exclude %d", ef, v, ex)
				sc := exactScorer{ix, emb.Row(int(v)), norms[v]}
				want := ix.beam(fresh(), sc, ef, ex)
				s := poisonedScratch(n, nil)
				s.release()
				requireSameBeam(t, tag, ix.beam(s, sc, ef, ex), want)
				putScratch(poisonedScratch(n, nil))
				requireSameBeam(t, tag+" through the pool", ix.Search(emb.Row(int(v)), norms[v], ef, ef, ex), want)
				for name, qt := range quantizers(emb) {
					tag := fmt.Sprintf("%s ef %d query %d exclude %d", name, ef, v, ex)
					f := fresh()
					want := ix.beam(f, quantScorer{qt.Query(emb.Row(int(v)), &f.quant), norms, norms[v]}, ef, ex)
					s := poisonedScratch(n, qt)
					s.release()
					got := ix.beam(s, quantScorer{qt.Query(emb.Row(int(v)), &s.quant), norms, norms[v]}, ef, ex)
					requireSameBeam(t, tag, got, want)
					putScratch(poisonedScratch(n, qt))
					requireSameBeam(t, tag+" through the pool", ix.SearchQuant(qt, emb.Row(int(v)), norms[v], ef, ex), want)
				}
			}
		}
	}
}

// TestScratchClearsOnlyWhatItSet: after a walk, putScratch leaves the
// whole visited bitset zero and the memo empty although it walks only
// the words of the ids the walk recorded and the slots the memo filled
// — a scratch grown for a larger index included.
func TestScratchClearsOnlyWhatItSet(t *testing.T) {
	emb, norms := randTable(900, 12, 6, 4)
	ix := Build(emb, norms, Params{}, 1)
	s := &scratch{visited: make([]uint64, 64)} // room for 4096 vertices
	ix.beam(s, exactScorer{ix, emb.Row(5), norms[5]}, 64, 5)
	if len(s.ids) < 64 {
		t.Fatalf("the walk recorded %d visited ids, want at least its beam", len(s.ids))
	}
	s.clearVisited()
	for i, w := range s.visited {
		if w != 0 {
			t.Fatalf("visited word %d = %#x after clearVisited", i, w)
		}
	}
	if len(s.ids) != 0 {
		t.Fatalf("%d ids left after clearVisited", len(s.ids))
	}
	if len(s.memo.used) == 0 {
		t.Fatal("the walk's descent remembered no score")
	}
	s.release()
	for i, k := range s.memo.keys {
		if k != 0 {
			t.Fatalf("memo slot %d holds vertex %d after release", i, k-1)
		}
	}
	if len(s.memo.used) != 0 {
		t.Fatalf("%d memo slots recorded after release", len(s.memo.used))
	}
}

// onceScorer fails its test if a vertex is scored twice in one walk,
// and counts the rows it scores.
type onceScorer struct {
	scorer
	t    *testing.T
	seen map[int32]bool
	rows *int
}

func (s onceScorer) scoreRows(ids []int32, out []float64) {
	for _, v := range ids {
		if s.seen[v] {
			s.t.Fatalf("vertex %d scored twice in one walk", v)
		}
		s.seen[v] = true
	}
	*s.rows += len(ids)
	s.scorer.scoreRows(ids, out)
}

// TestMemoNeverChangesABeam: a walk that remembers its scores answers
// with the ids and Float64bits of one that scores every row it meets
// (a walk with no memo), for f64, f32 and i8pq, at several beam widths
// and with and without an excluded vertex — and scores no vertex
// twice, fewer rows than the walk without it.
func TestMemoNeverChangesABeam(t *testing.T) {
	emb, norms := randTable(1500, 16, 8, 17)
	ix := Build(emb, norms, Params{}, 2)
	qts := quantizers(emb)
	for _, ef := range []int{10, 64, 300} {
		for _, v := range []int32{0, 77, 1499} {
			for _, ex := range []int32{v, -1} {
				for _, name := range []string{"f64", "f32", "i8pq"} {
					tag := fmt.Sprintf("%s ef %d query %d exclude %d", name, ef, v, ex)
					fresh := &scratch{visited: make([]uint64, (ix.Len()+63)/64)}
					var sc scorer = exactScorer{ix, emb.Row(int(v)), norms[v]}
					if qt := qts[name]; qt != nil {
						sc = quantScorer{qt.Query(emb.Row(int(v)), &fresh.quant), norms, norms[v]}
					}
					all := walk{ix: ix, sc: sc, scratch: fresh}
					ep, epSim := all.descend(0)
					want := all.searchLayer(ep, epSim, 0, ef, ex)
					fresh.release()
					rows := 0
					got := ix.beam(fresh, onceScorer{sc, t, map[int32]bool{}, &rows}, ef, ex)
					requireSameBeam(t, tag, got, want)
					if uint64(rows) >= all.scored {
						t.Fatalf("%s: %d rows scored with the memo, %d without", tag, rows, all.scored)
					}
				}
			}
		}
	}
}

// walkJob is one query of TestSearchQuantConcurrentScratches, with the
// answer the serial run gave it.
type walkJob struct {
	ix    *Index
	emb   *mat.Dense
	norms []float64
	qt    mat.Quantized // nil: the exact walk
	v     int32
	want  []Candidate
}

// run answers the job's query: the exact walk's 10 best, or the
// quantized walk's 48-wide beam.
func (j walkJob) run() []Candidate {
	q, qn := j.emb.Row(int(j.v)), j.norms[j.v]
	if j.qt == nil {
		return j.ix.Search(q, qn, 10, 48, j.v)
	}
	return j.ix.SearchQuant(j.qt, q, qn, 48, j.v)
}

// sameBeam reports whether two beams agree by id and Float64bits(score).
func sameBeam(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestSearchQuantConcurrentScratches runs SearchQuant and Search from
// eight goroutines at once over two indexes of different sizes — so
// the pool hands scratches grown for one to walks of the other — and
// compares every answer with the serial one.
func TestSearchQuantConcurrentScratches(t *testing.T) {
	var jobs []walkJob
	for i, n := range []int{300, 1300} {
		emb, norms := randTable(n, 16, 8, uint64(30+i))
		ix := Build(emb, norms, Params{}, 2)
		qts := quantizers(emb)
		for _, qt := range []mat.Quantized{nil, qts["f32"], qts["i8pq"]} {
			for v := int32(0); v < int32(n); v += int32(n / 11) {
				j := walkJob{ix: ix, emb: emb, norms: norms, qt: qt, v: v}
				j.want = j.run()
				jobs = append(jobs, j)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range jobs {
					j := jobs[(i*7+g*13+round)%len(jobs)]
					if got := j.run(); !sameBeam(got, j.want) {
						errs <- fmt.Sprintf("goroutine %d: |V| %d query %d (quantized %v) answered differently", g, j.ix.Len(), j.v, j.qt != nil)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWalksAllocateLittle holds a warmed query's allocations to a
// ceiling: the exact walk's Search and the quantized walks' SearchQuant
// take their visited bits, heaps, score buffer and prepared query from
// the pooled scratch, so what is left is the scorer handed to the walk
// and the answer's own slice. The race detector's pools drop what is
// put back at random, so under it there is nothing to count.
func TestWalksAllocateLittle(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled scratches at random")
	}
	emb, norms := randTable(2000, 32, 12, 8)
	ix := Build(emb, norms, Params{}, 2)
	qts := quantizers(emb)
	q, qn := emb.Row(77), norms[77]
	cases := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"f64 Search", 2, func() { ix.Search(q, qn, 10, 64, 77) }},
		{"f32 SearchQuant", 2, func() { ix.SearchQuant(qts["f32"], q, qn, 64, 77) }},
		{"i8pq SearchQuant", 2, func() { ix.SearchQuant(qts["i8pq"], q, qn, 64, 77) }},
	}
	for _, c := range cases {
		c.run() // warm the pool
		if got := testing.AllocsPerRun(50, c.run); got > c.ceiling {
			t.Errorf("%s: %.1f allocs a query, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs a query (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}
