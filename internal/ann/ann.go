// Package ann provides an HNSW-style approximate nearest-neighbor
// index over dense embedding tables — the sub-linear answer to the
// serving path's top-K similarity queries, which would otherwise scan
// all |V| vertices per query (the one remaining linear-in-graph-size
// hot path at Table-I scale).
//
// The index is deterministic by construction, extending the repo-wide
// determinism contract (bit-identical results at every Workers
// setting) from training and exact serving into the approximate
// world:
//
//   - Layer heights are a pure function of (seed, vertex id), drawn
//     from a private LCG with P(level >= l+1 | level >= l) = 1/4,
//     so the level assignment never depends on insertion order or
//     scheduling.
//   - Construction is wave-parallel: vertices are inserted in id
//     order in fixed-size waves. Within a wave every vertex searches
//     the frozen pre-wave graph for its candidate neighbors in
//     parallel (the distance-heavy part), then links are committed
//     serially in id order. The wave size is a constant, never a
//     function of the worker count, so the decomposition — and hence
//     the final link structure — is identical at every Workers
//     setting.
//   - Every comparison of two scored vertices goes through Before, a
//     total order (higher score first, lower id on ties), so heap
//     pops, neighbor selection and result ranking admit no
//     tie-breaking ambiguity. Every bounded selection — the beam's
//     result set, the exact rerank of a quantized beam, and the
//     serving layer's exact scan and cross-shard merge — is one type,
//     TopK.
//
// Similarity is cosine (higher is closer), computed exactly as the
// serving layer's exact scanner computes it, so an ANN result list is
// comparable element-for-element with the exact one. The search core
// reads rows only through a scorer: Build and Search score from the
// exact rows; SearchQuant steers the same walk by a compact table's
// approximate scores and leaves the exact scores to RerankExact.
package ann

import (
	"math"
	"slices"
	"sort"
	"sync"

	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// maxLevel caps layer heights; with p = 1/4 the expected top level of
// even a billion-vertex index is ~15.
const maxLevel = 16

// buildWave is the number of vertices inserted per construction wave.
// It is a constant — never derived from the worker count — because the
// wave decomposition determines which graph snapshot each vertex
// searches, and therefore the final link structure. Within a wave,
// committed wave-mates are offered to later members by brute force, so
// small graphs degrade gracefully toward sequential insertion quality.
const buildWave = 64

// Params configures index construction and the default query effort.
type Params struct {
	// M is the connectivity: each vertex keeps up to M links per
	// upper layer and 2M on the base layer (0 = 16).
	M int
	// EfConstruction is the candidate-beam width used while building
	// (0 = 128). Larger values build better graphs, slower.
	EfConstruction int
	// EfSearch is the default query-time beam width (0 = 64). Queries
	// may override it per call; recall rises with ef at the cost of
	// visiting more candidates.
	EfSearch int
	// Seed drives the layer-height LCG. Two indexes built over the
	// same table with the same Params are identical structures.
	Seed uint64
}

// Resolved returns the params with defaults filled in — the exact
// configuration Build would run with, which is what artifact
// validation compares against a persisted index's parameters.
func (p Params) Resolved() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.M <= 0 {
		p.M = 16
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = 128
	}
	if p.EfSearch <= 0 {
		p.EfSearch = 64
	}
	if p.Seed == 0 {
		p.Seed = 0x9E3779B97F4A7C15
	}
	return p
}

// Candidate is one scored vertex of a search answer.
type Candidate struct {
	ID    int32
	Score float64
}

// Before reports whether (s1, id1) ranks strictly ahead of (s2, id2):
// higher score first, lower id on ties. It is a total order for
// distinct ids — the property that makes every heap pop and neighbor
// selection in this package unambiguous, and ANN result lists
// mergeable with the exact scanner's.
func Before(s1 float64, id1 int32, s2 float64, id2 int32) bool {
	if s1 != s2 {
		return s1 > s2
	}
	return id1 < id2
}

// node is one indexed vertex: its layer height and where its links
// start in Index.links.
type node struct {
	level int32
	off   int
}

// Index is an immutable-after-Build HNSW graph over an embedding
// table. Queries are read-only and safe for concurrent use.
type Index struct {
	params Params
	emb    *mat.Dense
	norms  []float64

	nodes []node
	// links holds every vertex's out-links in one vertex-major array,
	// laid out as the binary encoding lays them out: from
	// nodes[v].off, per layer 0..level, a link count and then that
	// many neighbour ids. A walk reaches a vertex's base-layer links
	// through its node and one count, not through per-node and
	// per-layer slice headers.
	links []int32
	// adj is the graph while Build grows it — per vertex, per layer,
	// its out-links — and nil once Build has packed it into links.
	adj   [][][]int32
	entry int32 // highest-level vertex, lowest id on ties (-1 when empty)

	// distComps counts similarity evaluations during Build — exposed
	// through Stats for the recall/cost harness.
	buildDistComps uint64
}

// Stats reports structural facts about a built index.
type Stats struct {
	N              int
	MaxLevel       int
	Entry          int32
	Links          int // total directed links over all layers
	BuildDistComps uint64
}

// Stats summarizes the index structure.
func (ix *Index) Stats() Stats {
	s := Stats{N: len(ix.nodes), Entry: ix.entry, BuildDistComps: ix.buildDistComps}
	for v, nd := range ix.nodes {
		if int(nd.level) > s.MaxLevel {
			s.MaxLevel = int(nd.level)
		}
		for l := int32(0); l <= nd.level; l++ {
			s.Links += len(ix.linksAt(int32(v), l))
		}
	}
	return s
}

// linksAt returns vertex v's out-links at layer l, which must be at
// most v's level.
func (ix *Index) linksAt(v, l int32) []int32 {
	if ix.adj != nil {
		return ix.adj[v][l]
	}
	off := ix.nodes[v].off
	for ; l > 0; l-- {
		off += 1 + int(ix.links[off])
	}
	end := off + 1 + int(ix.links[off])
	return ix.links[off+1 : end : end]
}

// pack moves the graph Build grew in adj into the one links array,
// in one pass in vertex order, and drops adj.
func (ix *Index) pack() {
	size := 0
	for _, ls := range ix.adj {
		size += len(ls)
		for _, l := range ls {
			size += len(l)
		}
	}
	ix.links = make([]int32, 0, size)
	for v, ls := range ix.adj {
		ix.nodes[v].off = len(ix.links)
		for _, l := range ls {
			ix.links = append(ix.links, int32(len(l)))
			ix.links = append(ix.links, l...)
		}
	}
	ix.adj = nil
}

// Params returns the resolved construction parameters.
func (ix *Index) Params() Params { return ix.params }

// Len returns the number of indexed vertices.
func (ix *Index) Len() int { return len(ix.nodes) }

// levelFor draws vertex id's layer height from the seeded LCG: a pure
// function of (seed, id), so index shape is independent of insertion
// order, wave decomposition and worker count.
func levelFor(seed uint64, id int32) int32 {
	x := seed + uint64(id)*0x9E3779B97F4A7C15
	lvl := int32(0)
	for lvl < maxLevel-1 {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>33)&3 != 0 {
			break
		}
		lvl++
	}
	return lvl
}

// sim returns the cosine similarity between query (with norm qn) and
// indexed vertex v — the same arithmetic as the exact serving scanner:
// zero when either norm is zero.
func (ix *Index) sim(q []float64, qn float64, v int32) float64 {
	if d := qn * ix.norms[v]; d > 0 {
		return mat.Dot(q, ix.emb.Row(int(v))) / d
	}
	return 0
}

// Build constructs the index over emb. norms[v] must be ||emb[v]||₂
// (pass nil to have Build compute them). workers bounds the goroutine
// budget for the distance-heavy candidate searches (<= 0 uses the
// shared pool default); the resulting structure is bit-identical at
// every setting.
func Build(emb *mat.Dense, norms []float64, p Params, workers int) *Index {
	p = p.withDefaults()
	n := emb.NumRows()
	if workers < 1 {
		workers = perf.NumWorkers()
	}
	if norms == nil {
		norms = make([]float64, n)
		perf.ParallelMin(n, 64, workers, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				row := emb.Row(v)
				norms[v] = math.Sqrt(mat.Dot(row, row))
			}
		})
	}
	ix := &Index{params: p, emb: emb, norms: norms, entry: -1, nodes: make([]node, n), adj: make([][][]int32, n)}
	for v := 0; v < n; v++ {
		lvl := levelFor(p.Seed, int32(v))
		ix.nodes[v].level = lvl
		ix.adj[v] = make([][]int32, lvl+1)
	}

	// Per-wave scratch: candidate lists found against the frozen
	// pre-wave graph, one slot per wave member.
	cands := make([][][]Candidate, buildWave)
	var dist uint64
	for lo := 0; lo < n; lo += buildWave {
		hi := lo + buildWave
		if hi > n {
			hi = n
		}
		// Parallel phase: search the frozen graph. Each wave member's
		// candidate lists depend only on the pre-wave structure, so
		// scheduling cannot influence them.
		counts := make([]uint64, hi-lo)
		perf.Parallel(hi-lo, workers, func(_, wlo, whi int) {
			for w := wlo; w < whi; w++ {
				v := int32(lo + w)
				cands[w], counts[w] = ix.buildCandidates(v)
			}
		})
		for _, c := range counts {
			dist += c
		}
		// Serial phase: commit links in id order. Brute-force offers
		// from already-committed wave-mates patch in the connectivity
		// the frozen search could not see.
		for w := 0; lo+w < hi; w++ {
			dist += ix.commit(int32(lo+w), int32(lo), cands[w])
		}
	}
	ix.buildDistComps = dist
	ix.pack()
	return ix
}

// buildCandidates runs the insertion-time search for vertex v against
// the current (frozen) graph: greedy descent above v's level, then an
// EfConstruction-wide beam at each level v occupies. Levels above the
// current entry's level yield empty lists. Returns the per-level
// candidate lists (index = level) and the number of similarity
// evaluations spent.
func (ix *Index) buildCandidates(v int32) ([][]Candidate, uint64) {
	lvl := ix.nodes[v].level
	out := make([][]Candidate, lvl+1)
	if ix.entry < 0 {
		return out, 0
	}
	s := getScratch(len(ix.nodes))
	defer putScratch(s)
	w := newWalk(ix, exactScorer{ix, ix.emb.Row(int(v)), ix.norms[v]}, s)
	ep, epSim := w.descend(lvl)
	top := lvl
	if el := ix.nodes[ix.entry].level; el < top {
		top = el
	}
	for l := top; l >= 0; l-- {
		res := w.searchLayer(ep, epSim, l, ix.params.EfConstruction, -1)
		out[l] = res
		if len(res) > 0 {
			ep, epSim = res[0].ID, res[0].Score
		}
		// Reset the visited set between layers: each layer's beam is
		// an independent search (links differ per layer).
		w.clearVisited()
	}
	return out, w.scored
}

// commit links vertex v into the graph: merge brute-force offers from
// committed wave-mates (ids in [waveLo, v)) into the frozen-graph
// candidates, select neighbors per level, and add the reverse links,
// pruning any over-full list. Serial, in id order. Returns similarity
// evaluations spent.
func (ix *Index) commit(v, waveLo int32, cands [][]Candidate) uint64 {
	if ix.entry < 0 {
		ix.entry = v
		return 0
	}
	q := ix.emb.Row(int(v))
	qn := ix.norms[v]
	lvl := ix.nodes[v].level
	var dist uint64
	// Wave-mate patch: candidates the frozen search could not see.
	for u := waveLo; u < v; u++ {
		s := ix.sim(q, qn, u)
		dist++
		top := lvl
		if ul := ix.nodes[u].level; ul < top {
			top = ul
		}
		for l := int32(0); l <= top; l++ {
			cands[l] = append(cands[l], Candidate{ID: u, Score: s})
		}
	}
	for l := int32(0); l <= lvl; l++ {
		cs := cands[l]
		sort.Slice(cs, func(i, j int) bool {
			return Before(cs[i].Score, cs[i].ID, cs[j].Score, cs[j].ID)
		})
		sel, d := ix.selectNeighbors(cs, ix.params.M)
		dist += d
		ix.adj[v][l] = sel
		capL := ix.capAt(l)
		for _, u := range sel {
			ul := append(ix.adj[u][l], v)
			if len(ul) > capL {
				ul, d = ix.pruneLinks(u, l, ul, capL)
				dist += d
			}
			ix.adj[u][l] = ul
		}
	}
	if lvl > ix.nodes[ix.entry].level {
		ix.entry = v
	}
	return dist
}

// capAt returns the per-vertex link capacity at layer l: 2M on the
// base layer, M above.
func (ix *Index) capAt(l int32) int {
	if l == 0 {
		return 2 * ix.params.M
	}
	return ix.params.M
}

// selectNeighbors applies the HNSW diversity heuristic to a
// best-first-sorted candidate list: a candidate is kept only if it is
// closer to the query than to every already-kept neighbor, which
// spreads links across directions instead of bunching them in one
// cluster. Skipped candidates backfill remaining slots (the paper's
// keepPrunedConnections), preserving connectivity on clustered data.
// All comparisons go through the Before total order on exact scores,
// so the selection is deterministic.
func (ix *Index) selectNeighbors(cands []Candidate, m int) ([]int32, uint64) {
	var dist uint64
	sel := make([]int32, 0, m)
	var skipped []Candidate
	for _, c := range cands {
		if len(sel) == m {
			break
		}
		crow := ix.emb.Row(int(c.ID))
		cn := ix.norms[c.ID]
		diverse := true
		for _, s := range sel {
			dist++
			if toSel := ix.sim(crow, cn, s); toSel > c.Score {
				diverse = false
				break
			}
		}
		if diverse {
			sel = append(sel, c.ID)
		} else {
			skipped = append(skipped, c)
		}
	}
	for _, c := range skipped {
		if len(sel) == m {
			break
		}
		sel = append(sel, c.ID)
	}
	return sel, dist
}

// pruneLinks re-selects vertex u's layer-l neighbor list down to capL
// entries with the same diversity heuristic used at insertion, scored
// against u itself.
func (ix *Index) pruneLinks(u int32, l int32, links []int32, capL int) ([]int32, uint64) {
	urow := ix.emb.Row(int(u))
	un := ix.norms[u]
	cs := make([]Candidate, len(links))
	var dist uint64
	for i, w := range links {
		cs[i] = Candidate{ID: w, Score: ix.sim(urow, un, w)}
		dist++
	}
	sort.Slice(cs, func(i, j int) bool {
		return Before(cs[i].Score, cs[i].ID, cs[j].Score, cs[j].ID)
	})
	sel, d := ix.selectNeighbors(cs, capL)
	return sel, dist + d
}

// scorer is what the search core knows of a query: scoreRows writes
// the similarity of indexed row ids[i] to the query into out[i]. The
// core hands it every unvisited neighbour of the node it expands in one
// call, so a scorer with per-call cost — a quantized table's gather
// loop — pays it once per expansion, not once per row.
type scorer interface {
	scoreRows(ids []int32, out []float64)
}

// exactScorer is the exact float64 cosine, ix.sim row by row: the
// scorer of Build and Search.
type exactScorer struct {
	ix *Index
	q  []float64
	qn float64
}

func (s exactScorer) scoreRows(ids []int32, out []float64) {
	for i, v := range ids {
		out[i] = s.ix.sim(s.q, s.qn, v)
	}
}

// scratch is one walk's reusable state: the visited bitset (one bit
// per vertex), ids — every vertex this walk marked visited, in order,
// whose tail is the batch an expansion scores — the score memo, the
// scores buffer and the misses' buffers, the backing arrays of the
// expansion frontier and of the result selector, and the buffer a
// quantized query is prepared in. A scratch is taken from scratchPool
// for one walk and put back after it. The rule that keeps reuse out of
// every answer: visited is all zero and the memo empty while the
// scratch is in the pool (putScratch clears the words the walk set,
// which ids names, and the memo's slots through the ones it filled),
// and every other buffer — ids' spare capacity too, which the link
// gather writes ahead of what it keeps — is cleared or wholly
// overwritten before it is read.
type scratch struct {
	visited []uint64
	ids     []int32
	entry   [1]int32 // the entry point, scored alone by descend
	memo    memo
	scores  []float64
	missIDs []int32   // the ids of a batch the memo lacks, in batch order
	missAt  []int32   // their positions in the batch
	missOut []float64 // their scores
	cand    heap
	res     TopK
	quant   mat.QueryScratch
}

// scratchPool holds the walks' scratches. A scratch grows to the
// largest index it has walked, so one pool serves indexes of every
// size.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool with a clean visited bitset
// of at least n bits and an empty memo.
func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if words := (n + 63) / 64; len(s.visited) < words {
		s.visited = make([]uint64, words)
	}
	return s
}

// clearVisited zeroes the visited words this walk set — those of the
// ids it recorded, not the whole bitset — and forgets the ids.
func (s *scratch) clearVisited() {
	for _, v := range s.ids {
		s.visited[v>>6] = 0
	}
	s.ids = s.ids[:0]
}

// release clears what a walk left in s — its visited bits and its
// memo — as putScratch does before s goes back to the pool.
func (s *scratch) release() {
	s.clearVisited()
	s.memo.clear()
}

// putScratch returns a scratch to the pool, its visited bits and memo
// cleared.
func putScratch(s *scratch) {
	s.release()
	scratchPool.Put(s)
}

// memo is a walk's record of the scores it has computed, so that no
// vertex is scored twice in one walk: the greedy descent re-scores
// every link of every hop, and the base-layer beam meets vertices the
// descent scored. A score is a pure function of (query, vertex) — a
// scorer's row never depends on the rows batched with it — so a
// remembered score has the bits a second scoring would, and no
// comparison can change. It is an open-addressed table of vertex id+1
// (0 marks an empty slot), probed linearly from a Fibonacci hash and
// kept at most half full, the scores in a parallel array read only on
// a hit, plus the slots it filled, through which it is cleared. Its
// size follows the rows a walk scores — the table doubles when half
// full, and a pooled scratch keeps the largest it has grown to — never
// |V|.
type memo struct {
	keys   []int32 // vertex id + 1; 0 when the slot is empty
	scores []float64
	used   []int32 // the filled slots, in fill order
}

// memoMinSlots is a fresh memo's table size: room for the ~60 rows a
// serving walk's descent scores, several times over, before it
// doubles.
const memoMinSlots = 256

// memoHome is the slot vertex v's probe starts at in a table of mask+1
// slots.
func memoHome(v int32, mask int) int {
	return int(uint64(uint32(v))*0x9E3779B97F4A7C15>>32) & mask
}

// get returns v's remembered score and whether there is one.
func (m *memo) get(v int32) (float64, bool) {
	mask := len(m.keys) - 1
	if mask < 0 {
		return 0, false
	}
	for i := memoHome(v, mask); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case v + 1:
			return m.scores[i], true
		case 0:
			return 0, false
		}
	}
}

// put remembers v's score; a second put of v overwrites the first.
func (m *memo) put(v int32, score float64) {
	if 2*(len(m.used)+1) > len(m.keys) {
		m.grow()
	}
	mask := len(m.keys) - 1
	i := memoHome(v, mask)
	for ; m.keys[i] != 0 && m.keys[i] != v+1; i = (i + 1) & mask {
	}
	if m.keys[i] == 0 {
		m.keys[i] = v + 1
		m.used = append(m.used, int32(i))
	}
	m.scores[i] = score
}

// grow doubles the table (to memoMinSlots when it has none) and
// re-inserts what it holds, in fill order.
func (m *memo) grow() {
	keys, scores, used := m.keys, m.scores, m.used
	n := max(memoMinSlots, 2*len(keys))
	m.keys, m.scores, m.used = make([]int32, n), make([]float64, n), make([]int32, 0, n/2)
	for _, i := range used {
		m.put(keys[i]-1, scores[i])
	}
}

// clear empties the memo through the slots it filled.
func (m *memo) clear() {
	for _, i := range m.used {
		m.keys[i] = 0
	}
	m.used = m.used[:0]
}

// walk is one query's pass over the graph: its scorer, the scratch it
// runs in, the memo it remembers scores in — the scratch's, or none —
// and the number of rows handed to the scorer so far.
type walk struct {
	ix *Index
	sc scorer
	*scratch
	mem    *memo
	scored uint64
}

// newWalk starts a walk over ix scored by sc in s, remembering its
// scores in s's memo. Build's insertion searches walk this way too: a
// remembered score is the score, so the links it builds are the links
// it built without one.
func newWalk(ix *Index, sc scorer, s *scratch) walk {
	return walk{ix: ix, sc: sc, scratch: s, mem: &s.memo}
}

// score returns the scores of ids, the result valid until the next
// call: remembered ones from the memo, the rest from one scorer call,
// after which the memo holds them too if remember is set. Every walk
// ends in a base-layer search, whose scores no later step asks for
// again, so that search remembers nothing. A walk without a memo
// scores every id.
func (w *walk) score(ids []int32, remember bool) []float64 {
	out := grow(&w.scores, len(ids))
	if w.mem == nil {
		w.sc.scoreRows(ids, out)
		w.scored += uint64(len(ids))
		return out
	}
	w.missIDs, w.missAt = w.missIDs[:0], w.missAt[:0]
	for i, v := range ids {
		if s, ok := w.mem.get(v); ok {
			out[i] = s
		} else {
			w.missIDs = append(w.missIDs, v)
			w.missAt = append(w.missAt, int32(i))
		}
	}
	miss := w.missIDs
	if len(miss) == 0 {
		return out
	}
	w.scored += uint64(len(miss))
	if len(miss) == len(ids) {
		w.sc.scoreRows(ids, out)
	} else {
		got := grow(&w.missOut, len(miss))
		w.sc.scoreRows(miss, got)
		for j, at := range w.missAt {
			out[at] = got[j]
		}
	}
	if remember {
		for j, v := range miss {
			w.mem.put(v, out[w.missAt[j]])
		}
	}
	return out
}

// grow returns a slice of n elements backed by *buf, replacing *buf
// when its capacity is short. The elements keep whatever they held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// descend scores the entry point and walks greedily down every layer
// above stop, returning where layer stop's search starts.
func (w *walk) descend(stop int32) (int32, float64) {
	ep := w.ix.entry
	w.entry[0] = ep
	epSim := w.score(w.entry[:], true)[0]
	for l := w.ix.nodes[ep].level; l > stop; l-- {
		ep, epSim = w.greedyAt(ep, epSim, l)
	}
	return ep, epSim
}

// greedyAt walks layer l greedily from ep toward the query, moving to
// a neighbor only on strict improvement under the Before order, so the
// walk terminates and is deterministic.
func (w *walk) greedyAt(ep int32, epSim float64, l int32) (int32, float64) {
	for {
		links := w.ix.linksAt(ep, l)
		improved := false
		for i, s := range w.score(links, true) {
			if u := links[i]; Before(s, u, epSim, ep) {
				ep, epSim = u, s
				improved = true
			}
		}
		if !improved {
			return ep, epSim
		}
	}
}

// searchLayer is the ef-bounded best-first beam search at one layer:
// expand the best unexpanded candidate — gather its unvisited
// neighbors, score them in one call, then admit them in link order —
// until it cannot improve the worst of the ef best found. exclude
// (when >= 0) is traversable but never enters the result set — the
// serving layer's own-vertex exclusion. The frontier and the selector
// start empty over the scratch's arrays; w.visited must hold no bit of
// this layer's walk yet (a scratch from getScratch, or one cleared by
// clearVisited), and every vertex it marks is appended to w.ids.
// The gather has no branch on the visited bit: each link is written
// at the tail of w.ids, and the tail moves past it only if its bit was
// clear. Results come back sorted best-first under the Before order,
// in a slice of their own.
func (w *walk) searchLayer(ep int32, epSim float64, l int32, ef int, exclude int32) []Candidate {
	cand := &w.cand // best-first expansion frontier
	*cand = heap{best: true, v: cand.v[:0]}
	res := &w.res // the ef best found so far
	*res = TopK{k: ef, h: heap{v: res.h.v[:0]}}
	visited := w.visited
	visited[ep>>6] |= 1 << (uint(ep) & 63)
	w.ids = append(w.ids, ep)
	cand.push(Candidate{ID: ep, Score: epSim})
	if ep != exclude {
		res.Offer(ep, epSim)
	}
	for cand.len() > 0 {
		c := cand.pop()
		if worst, full := res.worst(); full && Before(worst.Score, worst.ID, c.Score, c.ID) {
			break
		}
		links := w.ix.linksAt(c.ID, l)
		start := len(w.ids)
		buf := slices.Grow(w.ids, len(links))[:start+len(links)]
		tail := start
		for _, u := range links {
			buf[tail] = u
			word, bit := &visited[u>>6], uint(u)&63
			tail += int(*word>>bit&1 ^ 1)
			*word |= 1 << bit
		}
		w.ids = buf[:tail]
		ids := w.ids[start:]
		for i, s := range w.score(ids, l > 0) {
			u := ids[i]
			if !res.admits(u, s) {
				continue
			}
			cand.push(Candidate{ID: u, Score: s})
			if u != exclude {
				res.Offer(u, s)
			}
		}
	}
	return res.Sorted()
}

// beam descends to the base layer and returns its ef-wide beam — the
// one query path, whatever scores the rows — walking in s, which the
// caller took from getScratch and puts back after.
func (ix *Index) beam(s *scratch, sc scorer, ef int, exclude int32) []Candidate {
	w := newWalk(ix, sc, s)
	ep, epSim := w.descend(0)
	return w.searchLayer(ep, epSim, 0, ef, exclude)
}

// Search returns the k indexed vertices most cosine-similar to the
// query vector (with precomputed norm qn), beam width ef (raised to k
// when smaller; Params.EfSearch when <= 0). exclude (>= 0) removes
// one vertex — typically the query's own id — from the answer.
// Results are ranked by the Before total order; the call is read-only
// and deterministic.
func (ix *Index) Search(query []float64, qn float64, k, ef int, exclude int32) []Candidate {
	if len(ix.nodes) == 0 || k < 1 {
		return nil
	}
	if ef <= 0 {
		ef = ix.params.EfSearch
	}
	if ef < k {
		ef = k
	}
	s := getScratch(len(ix.nodes))
	res := ix.beam(s, exactScorer{ix, query, qn}, ef, exclude)
	putScratch(s)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// SearchVertex is Search for an indexed vertex id: the query vector
// and norm come from the table and the vertex itself is excluded.
func (ix *Index) SearchVertex(v int32, k, ef int) []Candidate {
	return ix.Search(ix.emb.Row(int(v)), ix.norms[v], k, ef, v)
}
