package sampler

// The Dashboard (Algorithms 3-4) two ways: the paper's explicit DB/IA
// arrays, kept here as the oracle, and the implicit one the sampler
// runs. White-box tests of the explicit structure's layout,
// invalidation, cleanup and growth and of the implicit one's block
// lookup and cleanup, then the differential test that holds the
// sampler to the oracle's vertex lists, subgraphs and Stats.

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"gsgcn/internal/graph"
	"gsgcn/internal/rng"
)

// explicitDashboard is the paper's DB/IA pair in structure-of-arrays
// form. Per DB entry: vertex id (slot 1), offset within its block
// (slot 2; the block head instead stores the block length), and the
// index of the owning IA record (slot 3). IA records the block start
// and a liveness flag per vertex ever added (current or historical
// frontier vertex), enabling cleanup without scanning dead space.
type explicitDashboard struct {
	vertex []int32
	offset []int32
	iaIdx  []int32

	iaStart []int32
	iaLive  []bool
	iaVert  []int32

	used int // first free DB slot
	live int // number of live IA records (current frontier size)
}

func newExplicitDashboard(capacity int) *explicitDashboard {
	db := &explicitDashboard{
		vertex: make([]int32, capacity),
		offset: make([]int32, capacity),
		iaIdx:  make([]int32, capacity),
	}
	for i := range db.vertex {
		db.vertex[i] = invalid
	}
	return db
}

// appendBlock writes a block of n entries for vertex v and registers
// it in IA. The caller guarantees capacity.
func (db *explicitDashboard) appendBlock(v int32, n int) {
	start := db.used
	ia := int32(len(db.iaStart))
	db.iaStart = append(db.iaStart, int32(start))
	db.iaLive = append(db.iaLive, true)
	db.iaVert = append(db.iaVert, v)
	for k := 0; k < n; k++ {
		db.vertex[start+k] = v
		if k == 0 {
			db.offset[start+k] = int32(-n) // block head stores -length
		} else {
			db.offset[start+k] = int32(k)
		}
		db.iaIdx[start+k] = ia
	}
	db.used += n
	db.live++
}

// invalidate kills the block containing entry idx and returns its
// vertex and length.
func (db *explicitDashboard) invalidate(idx int) (v int32, blockLen int) {
	off := db.offset[idx]
	start := idx
	if off > 0 {
		start = idx - int(off)
	}
	blockLen = int(-db.offset[start])
	v = db.vertex[start]
	for k := 0; k < blockLen; k++ {
		db.vertex[start+k] = invalid
	}
	db.iaLive[db.iaIdx[start]] = false
	db.live--
	return v, blockLen
}

// cleanup compacts live blocks to the front of the DB and rebuilds IA
// (Algorithm 4, PARDO_CLEANUP). It returns the number of entries
// moved.
func (db *explicitDashboard) cleanup() int64 {
	newStart := make([]int32, 0, db.live)
	newVert := make([]int32, 0, db.live)
	w := 0
	var moved int64
	for ia, liveFlag := range db.iaLive {
		if !liveFlag {
			continue
		}
		start := int(db.iaStart[ia])
		blockLen := int(-db.offset[start])
		newIA := int32(len(newStart))
		newStart = append(newStart, int32(w))
		newVert = append(newVert, db.iaVert[ia])
		// Move the block; regions never overlap forward since w <= start.
		for k := 0; k < blockLen; k++ {
			db.vertex[w+k] = db.vertex[start+k]
			db.offset[w+k] = db.offset[start+k]
			db.iaIdx[w+k] = newIA
		}
		w += blockLen
		moved += int64(blockLen)
	}
	for i := w; i < db.used; i++ {
		db.vertex[i] = invalid
	}
	db.used = w
	newLive := make([]bool, len(newStart))
	for i := range newLive {
		newLive[i] = true
	}
	db.iaStart = newStart
	db.iaLive = newLive
	db.iaVert = newVert
	return moved
}

// growExplicitDashboard doubles capacity (at least to need),
// preserving content.
func growExplicitDashboard(db *explicitDashboard, need int) *explicitDashboard {
	newCap := 2 * len(db.vertex)
	if newCap < need {
		newCap = need * 2
	}
	nd := newExplicitDashboard(newCap)
	copy(nd.vertex, db.vertex[:db.used])
	copy(nd.offset, db.offset[:db.used])
	copy(nd.iaIdx, db.iaIdx[:db.used])
	nd.iaStart = db.iaStart
	nd.iaLive = db.iaLive
	nd.iaVert = db.iaVert
	nd.used = db.used
	nd.live = db.live
	return nd
}

// sampleExplicit is Algorithm 3 on the explicit DB/IA arrays, as
// Frontier ran it before the implicit Dashboard: the oracle for
// Frontier.SampleVerticesStats. grows counts the capacity growths.
func sampleExplicit(f *Frontier, r *rng.RNG) (vsub []int32, stats *Stats, grows int) {
	g := f.G
	if g.NumVertices() == 0 {
		return nil, &Stats{BlockLens: map[int]int64{}}, 0
	}
	m := min(f.M, g.NumVertices())
	m = max(m, 1)
	n := max(f.N, m)
	eta := f.Eta
	if eta <= 1 {
		eta = 2
	}
	stats = &Stats{BlockLens: make(map[int]int64)}
	dbar := g.AvgDegree()
	if f.DegCap > 0 && dbar > float64(f.DegCap) {
		dbar = float64(f.DegCap)
	}
	dbar = max(dbar, 1)
	db := newExplicitDashboard(int(eta * float64(m) * dbar))

	vsub = make([]int32, 0, n)
	for _, v := range r.Sample(g.NumVertices(), m) {
		vv := int32(v)
		e := f.entries(vv)
		if db.used+e > len(db.vertex) {
			db = growExplicitDashboard(db, db.used+e)
			grows++
		}
		db.appendBlock(vv, e)
		stats.Written += int64(e)
		stats.BlockLens[e]++
		vsub = append(vsub, vv)
	}
	for len(vsub) < n {
		var idx int
		for {
			stats.Probes++
			idx = r.Intn(db.used)
			if db.vertex[idx] != invalid {
				break
			}
		}
		vpop, blockLen := db.invalidate(idx)
		stats.Pops++
		stats.Invalidated += int64(blockLen)
		stats.BlockLens[blockLen]++
		vsub = append(vsub, vpop)

		var vnew int32
		if d := g.Degree(vpop); d > 0 {
			vnew = g.Neighbor(vpop, r.Intn(d))
		} else {
			vnew = int32(r.Intn(g.NumVertices()))
		}
		e := f.entries(vnew)
		if db.used+e > len(db.vertex) {
			stats.Written += db.cleanup()
			stats.Cleanups++
			if db.used+e > len(db.vertex) {
				db = growExplicitDashboard(db, db.used+e)
				grows++
			}
		}
		db.appendBlock(vnew, e)
		stats.Written += int64(e)
		stats.BlockLens[e]++
	}
	return vsub, stats, grows
}

func TestExplicitDashboardAppendBlockLayout(t *testing.T) {
	db := newExplicitDashboard(32)
	db.appendBlock(7, 4)
	if db.used != 4 || db.live != 1 {
		t.Fatalf("used=%d live=%d", db.used, db.live)
	}
	// Block head stores -length; the rest store offsets.
	if db.offset[0] != -4 {
		t.Errorf("head offset = %d, want -4", db.offset[0])
	}
	for k := 1; k < 4; k++ {
		if db.offset[k] != int32(k) {
			t.Errorf("offset[%d] = %d, want %d", k, db.offset[k], k)
		}
		if db.vertex[k] != 7 {
			t.Errorf("vertex[%d] = %d, want 7", k, db.vertex[k])
		}
	}
	if db.iaStart[0] != 0 || !db.iaLive[0] || db.iaVert[0] != 7 {
		t.Errorf("IA record wrong: start=%d live=%v vert=%d", db.iaStart[0], db.iaLive[0], db.iaVert[0])
	}
}

func TestExplicitDashboardInvalidateFromAnyEntry(t *testing.T) {
	for probe := 0; probe < 3; probe++ {
		db := newExplicitDashboard(32)
		db.appendBlock(5, 3)
		v, blockLen := db.invalidate(probe)
		if v != 5 || blockLen != 3 {
			t.Fatalf("probe %d: invalidate returned v=%d len=%d", probe, v, blockLen)
		}
		for k := 0; k < 3; k++ {
			if db.vertex[k] != invalid {
				t.Errorf("probe %d: entry %d not invalidated", probe, k)
			}
		}
		if db.iaLive[0] {
			t.Error("IA record still live after invalidate")
		}
		if db.live != 0 {
			t.Errorf("live = %d, want 0", db.live)
		}
	}
}

func TestExplicitDashboardCleanupCompacts(t *testing.T) {
	db := newExplicitDashboard(64)
	db.appendBlock(1, 3)
	db.appendBlock(2, 4)
	db.appendBlock(3, 2)
	db.invalidate(0) // kill vertex 1's block
	usedBefore := db.used
	moved := db.cleanup()
	if moved != 6 {
		t.Errorf("moved = %d entries, want 6 (blocks of 4 and 2)", moved)
	}
	if db.used != 6 || db.used >= usedBefore {
		t.Errorf("used = %d after cleanup, want 6 < %d", db.used, usedBefore)
	}
	// Surviving blocks must be intact and addressable.
	if db.vertex[0] != 2 || db.offset[0] != -4 {
		t.Errorf("first surviving block corrupted: v=%d off=%d", db.vertex[0], db.offset[0])
	}
	if db.vertex[4] != 3 || db.offset[4] != -2 {
		t.Errorf("second surviving block corrupted: v=%d off=%d", db.vertex[4], db.offset[4])
	}
	// IA rebuilt with only live entries.
	if len(db.iaStart) != 2 || db.iaVert[0] != 2 || db.iaVert[1] != 3 {
		t.Errorf("IA after cleanup: starts=%v verts=%v", db.iaStart, db.iaVert)
	}
	// Invalidate through the compacted table still works.
	v, l := db.invalidate(5) // inside vertex 3's block
	if v != 3 || l != 2 {
		t.Errorf("post-cleanup invalidate: v=%d len=%d", v, l)
	}
}

func TestExplicitDashboardCleanupAllDead(t *testing.T) {
	db := newExplicitDashboard(16)
	db.appendBlock(1, 2)
	db.invalidate(0)
	if moved := db.cleanup(); moved != 0 {
		t.Errorf("moved = %d, want 0", moved)
	}
	if db.used != 0 || db.live != 0 {
		t.Errorf("used=%d live=%d after full cleanup", db.used, db.live)
	}
}

func TestGrowExplicitDashboardPreservesContent(t *testing.T) {
	db := newExplicitDashboard(8)
	db.appendBlock(4, 3)
	db.appendBlock(9, 5)
	grown := growExplicitDashboard(db, 100)
	if len(grown.vertex) < 100 {
		t.Fatalf("grown capacity %d < 100", len(grown.vertex))
	}
	if grown.used != db.used || grown.live != db.live {
		t.Fatalf("bookkeeping lost: used %d->%d live %d->%d", db.used, grown.used, db.live, grown.live)
	}
	for k := 0; k < db.used; k++ {
		if grown.vertex[k] != db.vertex[k] || grown.offset[k] != db.offset[k] || grown.iaIdx[k] != db.iaIdx[k] {
			t.Fatalf("entry %d corrupted by growth", k)
		}
	}
	// New tail must be invalid (unprobeable).
	for k := db.used; k < len(grown.vertex); k++ {
		if grown.vertex[k] != invalid {
			t.Fatalf("grown tail entry %d not invalid", k)
		}
	}
}

// TestDashboardFindsEveryEntrysBlock: every entry of the used prefix
// maps to the block that holds it, at block counts on both sides of
// each power of two the binary search halves through.
func TestDashboardFindsEveryEntrysBlock(t *testing.T) {
	for blocks := 1; blocks <= 17; blocks++ {
		var db dashboard
		var want []int
		for b := 0; b < blocks; b++ {
			n := 1 + (b*7)%5
			db.appendBlock(int32(100+b), n)
			for k := 0; k < n; k++ {
				want = append(want, b)
			}
		}
		if db.used != len(want) {
			t.Fatalf("%d blocks: used = %d, want %d", blocks, db.used, len(want))
		}
		for idx, b := range want {
			if got := db.find(int32(idx)); got != b {
				t.Fatalf("%d blocks: entry %d found in block %d, want %d", blocks, idx, got, b)
			}
		}
		for b := 0; b < blocks; b++ {
			if got, want := db.blockLen(b), 1+(b*7)%5; got != want {
				t.Errorf("%d blocks: blockLen(%d) = %d, want %d", blocks, b, got, want)
			}
		}
	}
}

func TestDashboardCleanupCompacts(t *testing.T) {
	var db dashboard
	db.appendBlock(1, 3)
	db.appendBlock(2, 4)
	db.appendBlock(3, 2)
	db.vert[db.find(1)] = invalid // pop vertex 1's block from inside it
	if moved := db.cleanup(); moved != 6 {
		t.Errorf("moved = %d entries, want 6 (blocks of 4 and 2)", moved)
	}
	if db.used != 6 || !slices.Equal(db.start, []int32{0, 4}) || !slices.Equal(db.vert, []int32{2, 3}) {
		t.Errorf("after cleanup: used=%d starts=%v verts=%v, want 6 [0 4] [2 3]", db.used, db.start, db.vert)
	}
	if b := db.find(5); db.vert[b] != 3 || db.blockLen(b) != 2 {
		t.Errorf("entry 5 after cleanup: vertex %d, block of %d, want 3 and 2", db.vert[b], db.blockLen(b))
	}
	db.vert[0], db.vert[1] = invalid, invalid
	if moved := db.cleanup(); moved != 0 || db.used != 0 || len(db.start) != 0 {
		t.Errorf("all dead: moved=%d used=%d blocks=%d, want 0 0 0", moved, db.used, len(db.start))
	}
}

func TestFrontierEntriesClamp(t *testing.T) {
	g := starGraph(t, 100)
	f := &Frontier{G: g, M: 4, N: 10}
	if e := f.entries(0); e != 100 {
		t.Errorf("hub entries = %d, want 100", e)
	}
	f.DegCap = 30
	if e := f.entries(0); e != 30 {
		t.Errorf("capped hub entries = %d, want 30", e)
	}
	// Leaves have degree 1.
	if e := f.entries(5); e != 1 {
		t.Errorf("leaf entries = %d, want 1", e)
	}
}

func TestFrontierEntriesIsolated(t *testing.T) {
	g, err := newGraphWithIsolated()
	if err != nil {
		t.Fatal(err)
	}
	f := &Frontier{G: g, M: 2, N: 4}
	// Vertex 2 is isolated: still gets one entry so it stays poppable.
	if e := f.entries(2); e != 1 {
		t.Errorf("isolated entries = %d, want 1", e)
	}
}

// newGraphWithIsolated builds a 3-vertex graph where vertex 2 is
// isolated.
func newGraphWithIsolated() (*graph.CSR, error) {
	return graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
}

// hubGraph has five hubs, each joined to every fifth of the other n-5
// vertices, which also form a path: a few hundred entries per hub
// against an average degree near 4, so a small frontier's Dashboard
// must grow, and cleans up often.
func hubGraph(tb testing.TB, n int) *graph.CSR {
	tb.Helper()
	var edges []graph.Edge
	for v := 5; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v % 5), V: int32(v)})
		if v+1 < n {
			edges = append(edges, graph.Edge{U: int32(v), V: int32(v + 1)})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestImplicitDashboardMatchesExplicit draws 1 080 subgraphs with the
// implicit Dashboard and the explicit oracle from the same RNG
// streams, on a power-law graph, a hub-heavy one and one where half
// the vertices have degree 0, at m = 1, 10, 150, two budgets each,
// degree caps 0, 5, 30 and η = 1.25, 2. The vertex lists, the induced
// subgraphs and the Stats, BlockLens included, must be equal, and
// SampleVertices must return the same list as SampleVerticesStats. On
// the hub graph both cleanup and growth must have run.
func TestImplicitDashboardMatchesExplicit(t *testing.T) {
	isolated, err := graph.FromEdges(400, func() (es []graph.Edge) {
		r := rng.New(3)
		for i := 0; i < 600; i++ {
			es = append(es, graph.Edge{U: int32(r.Intn(200)), V: int32(r.Intn(200))})
		}
		return es
	}())
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{{"power-law", testGraph(t)}, {"hubs", hubGraph(t, 2000)}, {"isolated", isolated}}
	draws := 0
	for gi, gc := range graphs {
		var cleanups, grows int
		for _, m := range []int{1, 10, 150} {
			for _, n := range []int{m + 1, 8*m + 50} {
				for _, degCap := range []int{0, 5, 30} {
					for _, eta := range []float64{1.25, 2} {
						f := &Frontier{G: gc.g, M: m, N: n, DegCap: degCap, Eta: eta}
						for s := 0; s < 10; s++ {
							id := ((gi*3+m)*100+n)*10 + s
							want, wantStats, g := sampleExplicit(f, rng.NewStream(77, id))
							got, gotStats := f.SampleVerticesStats(rng.NewStream(77, id))
							plain := f.SampleVertices(rng.NewStream(77, id))
							draws++
							cleanups += wantStats.Cleanups
							grows += g
							where := func() string {
								return fmt.Sprintf("%s m=%d n=%d cap=%d eta=%v stream %d", gc.name, m, n, degCap, eta, s)
							}
							if !slices.Equal(got, want) || !slices.Equal(plain, want) {
								t.Fatalf("%s: vertex lists differ:\n got %v\nplain %v\nwant %v", where(), got, plain, want)
							}
							if !statsEqual(gotStats, wantStats) {
								t.Fatalf("%s: Stats differ:\n got %+v\nwant %+v", where(), *gotStats, *wantStats)
							}
							gs, ws := gc.g.Induce(got), gc.g.Induce(want)
							if !slices.Equal(gs.Orig, ws.Orig) || !slices.Equal(gs.RowPtr, ws.RowPtr) || !slices.Equal(gs.ColIdx, ws.ColIdx) {
								t.Fatalf("%s: induced subgraphs differ", where())
							}
						}
					}
				}
			}
		}
		t.Logf("%s: %d cleanups, %d growths", gc.name, cleanups, grows)
		if gc.name == "hubs" && (cleanups == 0 || grows == 0) {
			t.Errorf("hub graph ran %d cleanups and %d growths; the test needs both > 0", cleanups, grows)
		}
	}
	if draws < 1000 {
		t.Errorf("drew %d subgraphs, want at least 1000", draws)
	}
}

func statsEqual(a, b *Stats) bool {
	return a.Pops == b.Pops && a.Probes == b.Probes && a.Cleanups == b.Cleanups &&
		a.Written == b.Written && a.Invalidated == b.Invalidated && maps.Equal(a.BlockLens, b.BlockLens)
}
