package main

import (
	"sort"
	"sync/atomic"
)

// prng is splitmix64: the benchmark's own generator, so request
// sequences depend on -seed alone and not on any package under test.
type prng struct{ s uint64 }

func newPRNG(seed uint64, stream uint64) *prng {
	p := &prng{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D}
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	z := p.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for
// the sizes used here.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// Request kinds.
const (
	opEmbed = iota
	opPredict
	opTopK
)

// op is one generated request.
type op struct {
	kind int
	ids  []int  // embed, predict
	id   int    // topk
	k    int    // topk
	mode string // topk: "", "exact" or "ann"
}

// opGen yields the request sequence of one generator goroutine.
type opGen interface{ next() op }

// pointGen draws embed, predict and (optionally) top-K requests in
// the ratio embedW : predictW : total-embedW-predictW; embed and
// predict ask for 1-3 uniformly chosen ids, top-K for k=10.
type pointGen struct {
	r        *prng
	vertices int
	embedW   int
	predictW int
	total    int
	topkMode string
}

func newPointGen(seed, stream uint64, vertices, embedW, predictW, topkW int, topkMode string) *pointGen {
	return &pointGen{r: newPRNG(seed, stream), vertices: vertices,
		embedW: embedW, predictW: predictW, total: embedW + predictW + topkW, topkMode: topkMode}
}

func (g *pointGen) next() op {
	c := g.r.intn(g.total)
	if c >= g.embedW+g.predictW {
		return op{kind: opTopK, id: g.r.intn(g.vertices), k: 10, mode: g.topkMode}
	}
	ids := make([]int, 1+g.r.intn(3))
	for i := range ids {
		ids[i] = g.r.intn(g.vertices)
	}
	if c < g.embedW {
		return op{kind: opEmbed, ids: ids}
	}
	return op{kind: opPredict, ids: ids}
}

// Top-K queries ask for k in [topkMinK, topkMinK+topkKs).
const (
	topkMinK = 10
	topkKs   = 8
)

// coldTopK hands out (id, k) pairs from a seeded permutation of all
// vertices x topkKs pairs, so no pair is asked twice in a run and the
// server's per-version top-K memo never hits. One instance is shared
// by every generator and phase of a run.
type coldTopK struct {
	perm   []int32
	cursor atomic.Int64
}

func newColdTopK(seed uint64, vertices int) *coldTopK {
	n := vertices * topkKs
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	r := newPRNG(seed, 0xC01D)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &coldTopK{perm: perm}
}

// next returns the next unused pair; it wraps (and so repeats) only
// after every pair has been used once.
func (c *coldTopK) next() op {
	i := int(c.cursor.Add(1)-1) % len(c.perm)
	p := int(c.perm[i])
	return op{kind: opTopK, id: p / topkKs, k: topkMinK + p%topkKs, mode: "exact"}
}

// used reports how many pairs have been handed out and how many exist.
func (c *coldTopK) used() (int64, int) { return c.cursor.Load(), len(c.perm) }

// zipfTopK draws from a fixed set of hot (id, k) keys with Zipf(s=1)
// popularity, so nearly every query after the first few is a memo hit.
type zipfTopK struct {
	r    *prng
	keys []op
	cdf  []float64
}

const zipfKeys = 64

func newZipfTopK(seed, stream uint64, vertices int) *zipfTopK {
	// The key set depends on the seed only, not the stream, so all
	// generators of a run share it.
	kr := newPRNG(seed, 0x21FF)
	z := &zipfTopK{r: newPRNG(seed, stream)}
	var sum float64
	for i := 0; i < zipfKeys; i++ {
		z.keys = append(z.keys, op{kind: opTopK, id: kr.intn(vertices), k: topkMinK + kr.intn(topkKs), mode: "exact"})
		sum += 1 / float64(i+1)
		z.cdf = append(z.cdf, sum)
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipfTopK) next() op {
	u := z.r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.keys) {
		i = len(z.keys) - 1
	}
	return z.keys[i]
}
