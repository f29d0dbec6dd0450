package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gsgcn/internal/mat"
)

// errClosed is returned for queries submitted after Close.
var errClosed = errors.New("serve: server closed")

// batcher coalesces concurrent point queries into one gather (and,
// for predictions, one head GEMM). Every answer comes from run. A
// request that finds the queue empty and the inline token free is a
// batch of one, run in its own goroutine: no channel hop to the
// dispatcher and none back, most of a microsecond answer's cost.
// Anyone arriving meanwhile queues on a channel; the dispatcher takes
// whatever is queued when it becomes free — up to MaxBatch ids — and
// answers the whole batch against a single snapshot with a single
// pass over the embedding table. There is no batching window: a lone
// request pays no added latency, and under heavy concurrency batches
// fill up and per-query overhead amortizes away.
type batcher struct {
	eng      *Engine
	maxBatch int
	reqs     chan *batchReq
	done     chan struct{}
	closing  sync.Once
	closed   atomic.Bool

	// inline is the token for answering in the submitter's goroutine;
	// it has one holder, so concurrent arrivals still queue and coalesce.
	inline atomic.Bool

	// batches/queries count dispatched batches and the queries they
	// carried; queries/batches is the observed coalescing factor
	// (reported by /healthz and asserted by tests). The batches count
	// doubles as the batch-id sequence: every dispatched batch gets
	// the post-increment value as its id, carried on responses so
	// request logs can show which queries coalesced together. Only
	// batches that actually gather rows count — a drain whose every
	// request failed validation or was abandoned dispatches nothing,
	// so it must not burn an id or skew the coalescing factor.
	batches atomic.Uint64
	queries atomic.Uint64

	// inst is wired by instrument (nil on an unobserved batcher).
	inst *batcherInst
}

type batchReq struct {
	// ctx is the submitting request's context. The dispatcher checks
	// it at gather time: a row whose submitter has already given up
	// (client disconnect, deadline) is dead weight and is skipped.
	// nil means background (requests built directly in tests).
	ctx     context.Context
	ids     []int
	predict bool
	out     chan batchResp

	// abandoned flips when the submitter stops waiting on out — its
	// done-select fired or its context ended while queued. The
	// dispatcher skips abandoned rows instead of gathering (and, for
	// predictions, GEMMing) them into a response nobody will read.
	abandoned atomic.Bool
}

// dead reports whether the request's submitter is known to have given
// up already. It may race the submitter's final select — a request
// answered right at its deadline can land either way — but that only
// changes whether this request is answered, never the bytes of any
// answered response.
func (r *batchReq) dead() bool {
	return r.abandoned.Load() || (r.ctx != nil && r.ctx.Err() != nil)
}

type batchResp struct {
	embed *EmbedResult
	pred  *PredictResult
	batch uint64 // id of the dispatched batch that answered (0 on error)
	err   error
}

// newBatcher starts the dispatcher goroutine.
func newBatcher(eng *Engine, maxBatch int) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &batcher{
		eng:      eng,
		maxBatch: maxBatch,
		reqs:     make(chan *batchReq, 4*maxBatch),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// close stops the dispatcher. It is idempotent and safe to race with
// submit from any number of goroutines: the closed flag flips before
// the done channel closes, so a submit that observed the flag gets
// errClosed immediately, one that already enqueued is unblocked
// either by the dispatcher's final drain or by its own done-select,
// and one answering inline returns its answer or errClosed.
func (b *batcher) close() {
	b.closing.Do(func() {
		b.closed.Store(true)
		close(b.done)
	})
}

func (b *batcher) loop() {
	for {
		select {
		case <-b.done:
			// Final drain: answer anything that squeezed into the queue
			// while close was in flight. Each out channel is buffered, so
			// the sends cannot block even if the submitter already gave
			// up via its own done-select.
			for {
				select {
				case r := <-b.reqs:
					r.out <- batchResp{err: errClosed}
				default:
					return
				}
			}
		case r := <-b.reqs:
			batch := append(make([]*batchReq, 0, 8), r)
			n := len(r.ids)
		drain:
			for n < b.maxBatch {
				select {
				case r2 := <-b.reqs:
					batch = append(batch, r2)
					n += len(r2.ids)
				default:
					break drain
				}
			}
			b.run(batch)
		}
	}
}

// submit answers one point query through the micro-batching path,
// reporting the id of the batch that carried it. The context bounds
// the whole wait: enqueueing on a full queue and waiting for the
// dispatched answer both give up when ctx ends.
func (b *batcher) submit(ctx context.Context, ids []int, predict bool) batchResp {
	if b.closed.Load() {
		return batchResp{err: errClosed}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return batchResp{err: fmt.Errorf("serve: %w before enqueue", err)}
	}
	r := &batchReq{ctx: ctx, ids: ids, predict: predict, out: make(chan batchResp, 1)}
	if len(b.reqs) == 0 && b.inline.CompareAndSwap(false, true) {
		b.runInline(r)
	} else {
		select {
		case b.reqs <- r:
		case <-b.done:
			return batchResp{err: errClosed}
		case <-ctx.Done():
			// The queue stayed full past the caller's deadline (or the
			// client hung up): give the slot up without ever occupying one.
			return batchResp{err: fmt.Errorf("serve: %w before enqueue", ctx.Err())}
		}
	}
	select {
	case resp := <-r.out:
		return resp
	case <-b.done:
		r.abandoned.Store(true)
		return batchResp{err: errClosed}
	case <-ctx.Done():
		// Mark the queued row dead so the dispatcher drops it instead
		// of gathering into a buffered channel nobody reads.
		r.abandoned.Store(true)
		return batchResp{err: fmt.Errorf("serve: %w while queued", ctx.Err())}
	}
}

// runInline answers r as a batch of one in the caller's goroutine,
// releasing the token by defer so that a panic in run cannot keep it.
func (b *batcher) runInline(r *batchReq) {
	defer b.inline.Store(false)
	b.run([]*batchReq{r})
}

// runOne answers one point query as a batch of one through run, on an
// uncounted batcher: the whole of Engine.Embed and Engine.Predict.
func (e *Engine) runOne(ids []int, predict bool) batchResp {
	r := &batchReq{ids: ids, predict: predict, out: make(chan batchResp, 1)}
	(&batcher{eng: e}).run([]*batchReq{r})
	return <-r.out
}

// run answers one batch against a single snapshot: one validation
// pass, one row gather for every queried id, and — when any request
// wants predictions — one head GEMM over the union.
func (b *batcher) run(batch []*batchReq) {
	var start time.Time
	if b.inst != nil {
		start = time.Now()
	}
	st, err := b.eng.Snapshot()
	if err != nil {
		for _, r := range batch {
			r.out <- batchResp{err: err}
		}
		return
	}
	// Validate per request; an invalid request fails alone without
	// poisoning the rest of the batch, and an abandoned request — its
	// submitter stopped waiting — contributes no rows at all.
	live := batch[:0:0]
	var all []int
	anyPredict := false
	for _, r := range batch {
		if r.dead() {
			continue
		}
		rows, err := localRows(st, r.ids)
		if err != nil {
			r.out <- batchResp{err: err}
			continue
		}
		live = append(live, r)
		all = append(all, rows...)
		anyPredict = anyPredict || r.predict
	}
	if len(live) == 0 {
		// Nothing dispatches: no batch id, no stats, no observations —
		// an all-invalid (or all-abandoned) drain must not inflate the
		// coalescing factor or record a 0-size batch in the histograms.
		return
	}
	id := b.batches.Add(1)
	b.queries.Add(uint64(len(live)))
	if b.inst != nil {
		b.inst.batchSize.Observe(float64(len(all)))
		defer func() { b.inst.flush.Observe(time.Since(start).Seconds()) }()
	}

	h := mat.New(len(all), st.Dim())
	mat.GatherRowsSrc(h, st.Emb, all)
	var logits *mat.Dense
	if anyPredict {
		logits = headLogits(st, h)
	}

	off := 0
	for _, r := range live {
		if r.predict {
			r.out <- batchResp{pred: predictionsFromLogits(st, r.ids, logits, off), batch: id}
		} else {
			r.out <- batchResp{embed: embedResult(st, r.ids, h, off), batch: id}
		}
		off += len(r.ids)
	}
}

// Stats reports dispatched batch and query counts.
func (b *batcher) Stats() (batches, queries uint64) {
	return b.batches.Load(), b.queries.Load()
}
