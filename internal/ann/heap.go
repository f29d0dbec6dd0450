package ann

import "math"

// heap is a small binary heap of Candidates ordered by the Before
// total order: with best==true the root is the best-ranked entry (the
// expansion frontier of a beam search), with best==false the root is
// the worst-ranked (the eviction point of a bounded result set).
// Because Before is total for distinct ids, two heaps fed the same
// offers in the same order always pop identical sequences — no
// tie-breaking ambiguity can leak into search results.
type heap struct {
	best bool
	v    []Candidate
}

func (h *heap) len() int { return len(h.v) }

// above reports whether element i must sit above element j.
func (h *heap) above(i, j int) bool {
	b := Before(h.v[i].Score, h.v[i].ID, h.v[j].Score, h.v[j].ID)
	if h.best {
		return b
	}
	return !b
}

func (h *heap) push(c Candidate) {
	h.v = append(h.v, c)
	i := len(h.v) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.above(i, p) {
			break
		}
		h.v[i], h.v[p] = h.v[p], h.v[i]
		i = p
	}
}

func (h *heap) pop() Candidate {
	root := h.v[0]
	last := len(h.v) - 1
	h.v[0] = h.v[last]
	h.v = h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.above(l, m) {
			m = l
		}
		if r < last && h.above(r, m) {
			m = r
		}
		if m == i {
			return root
		}
		h.v[i], h.v[m] = h.v[m], h.v[i]
		i = m
	}
}

// TopK is the module's one bounded selector: it keeps the k best
// (id, score) pairs of an offer stream under the Before total order,
// in a worst-at-root heap, so a candidate that does not beat the
// current worst — nearly all of a |V|-long scan — costs one compare.
// Selection under a total order does not depend on offer order, which
// is what lets per-range and per-shard selectors merge into exactly
// the answer of one scan. ids must be distinct across the stream.
type TopK struct {
	k int
	h heap
}

// NewTopK returns an empty selector bounded to the k best entries
// (k <= 0 holds nothing).
func NewTopK(k int) *TopK { return &TopK{k: k} }

// worst returns the worst-ranked held entry and whether the selector
// is full, i.e. whether an offer has to beat it to get in.
func (t *TopK) worst() (Candidate, bool) {
	if len(t.h.v) < t.k {
		return Candidate{}, false
	}
	return t.h.v[0], true
}

// admits reports whether Offer(id, score) would enter the selector.
// A NaN score never does: Before answers false for every comparison
// against NaN, so an admitted NaN would rise to the root as "worst"
// and then lose to no later candidate — the selector would silently
// keep whatever it held when it filled — and a similarity that is not
// a number ranks nothing.
func (t *TopK) admits(id int32, score float64) bool {
	if t.k <= 0 || math.IsNaN(score) {
		return false
	}
	w, full := t.worst()
	return !full || Before(score, id, w.Score, w.ID)
}

// Offer considers (id, score) for membership, evicting the worst held
// entry when the selector is full and the candidate beats it.
func (t *TopK) Offer(id int32, score float64) {
	if !t.admits(id, score) {
		return
	}
	if len(t.h.v) == t.k {
		t.h.pop()
	}
	t.h.push(Candidate{ID: id, Score: score})
}

// Sorted returns the held entries best first, leaving the selector as
// it was: a heapsort of a copy, each pop of the worst landing in the
// slot the shrinking heap just gave up.
func (t *TopK) Sorted() []Candidate {
	out := append([]Candidate(nil), t.h.v...)
	h := heap{v: out}
	for last := len(out) - 1; last >= 0; last-- {
		out[last] = h.pop()
	}
	return out
}
