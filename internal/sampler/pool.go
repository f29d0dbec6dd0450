package sampler

import (
	"sync"

	"gsgcn/internal/graph"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// Pool implements the training scheduler of Algorithm 5 as an
// asynchronously prefetching pipeline: subgraphs are sampled in waves
// of PInter instances (inter-subgraph parallelism, Section IV-C) by
// background goroutines and buffered in a bounded channel, so Next
// overlaps sampling with training instead of stalling the training
// loop on synchronous refills.
//
// Determinism contract: instance i of wave b draws from the private
// RNG stream derived from (Seed, b*PInter+i), and waves deliver their
// subgraphs into the buffer in (wave, instance) order. The sequence of
// subgraphs returned by a single Next caller is therefore a pure
// function of (Seed, Sampler, PInter) — independent of Workers,
// Prefetch, GOMAXPROCS and goroutine scheduling.
//
// The pipeline is pull-driven and self-limiting: background waves are
// only launched from Next (and the initial priming), at most Prefetch
// waves are in flight or buffered at once, and an in-flight wave can
// always deposit its results without blocking (buffer space is
// reserved at launch). Abandoning a Pool therefore leaks nothing: any
// running waves finish, park their subgraphs in the buffer, and exit.
type Pool struct {
	G       *graph.CSR
	Sampler VertexSampler
	// PInter is the number of concurrent sampler instances per wave
	// (p_inter in Section IV-C; 40 on the paper's platform).
	PInter int
	// Workers bounds the real goroutines used to run one wave's
	// instances; zero means GOMAXPROCS. PInter instances are still
	// sampled per wave, matching the paper's schedule even on small
	// hosts, and the sampled subgraphs are identical at every Workers
	// setting.
	Workers int
	// Prefetch is the pipeline depth in waves: how many waves of
	// PInter subgraphs may be buffered or in flight ahead of the
	// consumer. Zero means 2 (one wave being trained on, one being
	// sampled). Raise it when sampling is bursty relative to training.
	Prefetch int
	Seed     uint64

	mu       sync.Mutex
	cond     *sync.Cond
	ch       chan *graph.Subgraph
	credits  int // buffer slots not owned by a buffered or in-flight subgraph
	nextWave int // next wave number to claim; only pumpLocked claims one
	deliver  int // wave currently allowed to deposit into ch
}

// NewPool returns a Pool with an empty, unstarted pipeline.
func NewPool(g *graph.CSR, s VertexSampler, pinter int, seed uint64) *Pool {
	if pinter < 1 {
		pinter = 1
	}
	return &Pool{G: g, Sampler: s, PInter: pinter, Seed: seed}
}

// depth returns the pipeline depth in waves.
func (p *Pool) depth() int {
	if p.Prefetch > 0 {
		return p.Prefetch
	}
	return 2
}

// start lazily allocates the buffer and primes the pipeline. Callers
// hold p.mu.
func (p *Pool) startLocked() {
	if p.ch != nil {
		return
	}
	p.cond = sync.NewCond(&p.mu)
	p.ch = make(chan *graph.Subgraph, p.depth()*p.PInter)
	p.credits = p.depth() * p.PInter
	p.deliver = p.nextWave
	p.pumpLocked()
}

// pumpLocked launches sampler waves while buffer credit remains.
// Callers hold p.mu.
func (p *Pool) pumpLocked() {
	for p.credits >= p.PInter {
		p.credits -= p.PInter
		wave := p.nextWave
		p.nextWave++
		go p.runWave(wave)
	}
}

// runWave samples the PInter subgraphs of one wave in parallel and
// deposits them in wave order. The deposit cannot block: buffer space
// was reserved when the wave was claimed.
func (p *Pool) runWave(wave int) {
	out := make([]*graph.Subgraph, p.PInter)
	workers := p.Workers
	if workers <= 0 {
		workers = perf.NumWorkers()
	}
	perf.Parallel(p.PInter, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rng.NewStream(p.Seed, wave*p.PInter+i)
			out[i] = SampleSubgraph(p.G, p.Sampler, r)
		}
	})
	p.mu.Lock()
	for p.deliver != wave {
		p.cond.Wait()
	}
	p.mu.Unlock()
	for _, sub := range out {
		p.ch <- sub
	}
	p.mu.Lock()
	p.deliver++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Next returns the next pre-sampled subgraph, starting the background
// prefetch pipeline on first use and topping it up as subgraphs are
// consumed. It blocks only when training outruns the samplers. Next is
// safe for concurrent callers; each subgraph is delivered exactly once.
func (p *Pool) Next() *graph.Subgraph {
	p.mu.Lock()
	p.startLocked()
	p.mu.Unlock()
	sub := <-p.ch
	p.mu.Lock()
	p.credits++
	p.pumpLocked()
	p.mu.Unlock()
	return sub
}

// Pending returns the number of sampled subgraphs currently buffered
// and ready for Next (not counting waves still being sampled).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		return 0
	}
	return len(p.ch)
}
