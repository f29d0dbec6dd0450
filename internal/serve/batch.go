package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// batcher numbers and observes one shard's point queries. Each is
// answered by Engine.point on the goroutine that submitted it, as a
// batch of one: nothing queues and nothing coalesces. The name, the
// batch ids and the gsgcn_batcher_* series are kept for wire
// compatibility.
type batcher struct {
	eng *Engine

	// batches counts answered queries, each a batch of one, so it is
	// also the query count. It doubles as the batch-id sequence: every
	// answer gets the post-increment value as its id, carried on
	// responses so request logs can name it. A query that fails
	// validation is not answered: it burns no id and moves no stats.
	batches atomic.Uint64

	// inst is wired by instrument (nil on an unobserved batcher).
	inst *batcherInst
}

type batchResp struct {
	embed *EmbedResult
	pred  *PredictResult
	batch uint64 // id of the batch that answered (0 on error)
	err   error
}

// newBatcher returns eng's batcher. It starts nothing.
func newBatcher(eng *Engine) *batcher { return &batcher{eng: eng} }

// submit answers one point query on the caller's goroutine, reporting
// the id of the batch that carried it — unless ctx has already ended,
// in which case the query is not run at all.
func (b *batcher) submit(ctx context.Context, ids []int, predict bool) batchResp {
	if err := ended(ctx, "before enqueue"); err != nil {
		return batchResp{err: err}
	}
	var start time.Time
	if b.inst != nil {
		start = time.Now()
	}
	resp := b.eng.point(ids, predict)
	if resp.err != nil {
		return resp
	}
	resp.batch = b.batches.Add(1)
	if b.inst != nil {
		b.inst.batchSize.Observe(float64(len(ids)))
		b.inst.flush.Observe(time.Since(start).Seconds())
	}
	return resp
}
