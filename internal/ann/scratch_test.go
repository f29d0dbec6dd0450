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
// every id recorded — with junk in each buffer a walk overwrites: NaN
// scores, frontier and selector arrays full of candidates of no walk,
// and, when qt is not nil, a prepared query of a NaN vector, whose
// table or converted vector is NaN throughout.
func poisonedScratch(n int, qt mat.Quantized) *scratch {
	s := &scratch{visited: make([]uint64, (n+63)/64)}
	for i := range s.visited {
		s.visited[i] = ^uint64(0)
	}
	for v := 0; v < n; v++ {
		s.ids = append(s.ids, int32(v))
	}
	s.scores = make([]float64, 4*n)
	for i := range s.scores {
		s.scores[i] = math.NaN()
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
// visited and answer with the entry point alone.
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
				s.clearVisited()
				requireSameBeam(t, tag, ix.beam(s, sc, ef, ex), want)
				putScratch(poisonedScratch(n, nil))
				requireSameBeam(t, tag+" through the pool", ix.Search(emb.Row(int(v)), norms[v], ef, ef, ex), want)
				for name, qt := range quantizers(emb) {
					tag := fmt.Sprintf("%s ef %d query %d exclude %d", name, ef, v, ex)
					f := fresh()
					want := ix.beam(f, quantScorer{qt.Query(emb.Row(int(v)), &f.quant), norms, norms[v]}, ef, ex)
					s := poisonedScratch(n, qt)
					s.clearVisited()
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
// whole visited bitset zero although it walks only the words of the
// ids the walk recorded — a scratch grown for a larger index included.
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
