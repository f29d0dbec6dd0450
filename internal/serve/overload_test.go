package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// overloadServer builds a loaded single-model server with the given
// overload options.
func overloadServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	srv := NewServer(ds, opts)
	t.Cleanup(srv.Close)
	if _, err := srv.Install(m); err != nil {
		t.Fatal(err)
	}
	return srv
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestSubmitCancelMidQueue covers both places a context can end inside
// submit: before the request wins a queue slot, and while it sits
// queued waiting for the dispatcher. Both must free the caller with
// the context's error and, for the queued case, mark the row abandoned
// so the dispatcher never answers into a dead channel.
func TestSubmitCancelMidQueue(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	eng := NewEngine(ds, Options{Workers: 1})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	// No dispatcher goroutine: the queue can only drain through our
	// own reads, so queue states are fully deterministic.
	b := &batcher{eng: eng, maxBatch: 1, reqs: make(chan *batchReq, 1), done: make(chan struct{})}
	b.inline.Store(true) // held, as by a concurrent caller: every submit below queues

	// Already-canceled context: rejected before taking a queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := b.submit(ctx, []int{0}, false)
	if !errors.Is(resp.err, context.Canceled) || !strings.Contains(resp.err.Error(), "before enqueue") {
		t.Fatalf("pre-canceled submit err = %v", resp.err)
	}
	if len(b.reqs) != 0 {
		t.Fatalf("pre-canceled submit occupied a queue slot")
	}

	// Queued, then canceled: submit returns, the row is flagged dead.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan batchResp, 1)
	go func() { done <- b.submit(ctx2, []int{1}, false) }()
	var queued *batchReq
	select {
	case queued = <-b.reqs:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the queue")
	}
	cancel2()
	select {
	case resp = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled submit never returned")
	}
	if !errors.Is(resp.err, context.Canceled) || !strings.Contains(resp.err.Error(), "while queued") {
		t.Fatalf("canceled-while-queued err = %v", resp.err)
	}
	if !queued.dead() {
		t.Fatal("canceled request not marked dead for the dispatcher")
	}

	// A full queue past the deadline: the slot is never taken.
	b.reqs <- &batchReq{ids: []int{2}, out: make(chan batchResp, 1)}
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel3()
	resp = b.submit(ctx3, []int{3}, false)
	if !errors.Is(resp.err, context.DeadlineExceeded) || !strings.Contains(resp.err.Error(), "before enqueue") {
		t.Fatalf("full-queue deadline err = %v", resp.err)
	}
}

// TestRunSkipsDeadRequests pins the bugfix sweep: a drain whose every
// request is abandoned or invalid dispatches nothing — no answer into
// the dead channel, no batch id burned, no stats or histogram skew —
// and the next real query still gets batch id 1.
func TestRunSkipsDeadRequests(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	eng := NewEngine(ds, Options{Workers: 1})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	b := newBatcher(eng, 8)
	defer b.close()

	// Abandoned row: skipped entirely.
	dead := &batchReq{ids: []int{0}, out: make(chan batchResp, 1)}
	dead.abandoned.Store(true)
	// Invalid row: answered with its own error, but not dispatched.
	bad := &batchReq{ids: []int{99999}, out: make(chan batchResp, 1)}
	b.run([]*batchReq{dead, bad})

	select {
	case resp := <-dead.out:
		t.Fatalf("abandoned request was answered: %+v", resp)
	default:
	}
	if resp := <-bad.out; resp.err == nil {
		t.Fatal("invalid request did not fail")
	}
	if batches, queries := b.Stats(); batches != 0 || queries != 0 {
		t.Fatalf("empty dispatch skewed stats: batches=%d queries=%d", batches, queries)
	}

	if resp := b.submit(context.Background(), []int{1}, false); resp.err != nil || resp.batch != 1 {
		t.Fatalf("first real query: batch=%d err=%v, want batch 1", resp.batch, resp.err)
	}
	if batches, queries := b.Stats(); batches != 1 || queries != 1 {
		t.Fatalf("stats after one real query: batches=%d queries=%d", batches, queries)
	}
}

// TestDeadlineExpires covers the per-model deadline end to end: an
// un-meetable deadline answers 504 with reason "deadline", while a
// generous one answers 200.
func TestDeadlineExpires(t *testing.T) {
	expired := overloadServer(t, Options{Workers: 1, Deadline: time.Nanosecond})
	tsE := httptest.NewServer(expired)
	defer tsE.Close()

	code, body := getStatus(t, tsE.URL+"/embed?ids=0")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: code=%d body=%s", code, body)
	}
	if !strings.Contains(body, `"reason":"deadline"`) {
		t.Fatalf("504 body lacks reason: %s", body)
	}

	roomy := overloadServer(t, Options{Workers: 1, Deadline: time.Minute})
	tsR := httptest.NewServer(roomy)
	defer tsR.Close()
	if code, body = getStatus(t, tsR.URL+"/embed?ids=0"); code != http.StatusOK {
		t.Fatalf("roomy-deadline request: code=%d body=%s", code, body)
	}
}

// TestShedQueuePressure forces the queue-depth probe past the
// high-water mark on all three serving layers — Server, Router and
// Registry dispatch — and expects early 429s with reason "shed" plus
// a growing gsgcn_shed_total, then full recovery once pressure drops.
func TestShedQueuePressure(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")

	// pressure swaps a gate's depth probe for one pinned at the
	// high-water mark. Installed before the httptest server starts, so
	// the override is ordered before every handler goroutine.
	pressure := func(gate *admitGate) {
		gate.depth = func() int { return gate.hw }
	}
	check := func(t *testing.T, url, metrics string) {
		for _, ep := range []string{"/embed?ids=0", "/predict?ids=0", "/topk?id=0&k=3"} {
			code, body := getStatus(t, url+ep)
			if code != http.StatusTooManyRequests {
				t.Fatalf("%s under pressure: code=%d body=%s", ep, code, body)
			}
			if !strings.Contains(body, `"reason":"shed"`) {
				t.Fatalf("%s 429 body lacks reason: %s", ep, body)
			}
		}
		if _, body := getStatus(t, metrics); !strings.Contains(body, "gsgcn_shed_total") {
			t.Fatalf("shed metric family missing from scrape:\n%.400s", body)
		}
	}
	// recovered asserts a same-options instance with its real depth
	// probe (an idle queue) admits freely.
	recovered := func(t *testing.T, url string) {
		if code, body := getStatus(t, url+"/embed?ids=0"); code != http.StatusOK {
			t.Fatalf("idle-queue request: code=%d body=%s", code, body)
		}
	}

	t.Run("server", func(t *testing.T) {
		for _, pressured := range []bool{true, false} {
			srv := NewServer(ds, Options{Workers: 1, ShedQueueHW: 4})
			defer srv.Close()
			if _, err := srv.Install(m); err != nil {
				t.Fatal(err)
			}
			if pressured {
				pressure(srv.gate)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			if pressured {
				check(t, ts.URL, ts.URL+"/metrics")
			} else {
				recovered(t, ts.URL)
			}
		}
	})

	t.Run("router", func(t *testing.T) {
		for _, pressured := range []bool{true, false} {
			rt, err := NewRouter(ds, Options{Workers: 1, ShedQueueHW: 4}, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if _, err := rt.Install(m); err != nil {
				t.Fatal(err)
			}
			if pressured {
				pressure(rt.gate)
			}
			ts := httptest.NewServer(rt)
			defer ts.Close()
			if pressured {
				check(t, ts.URL, ts.URL+"/metrics")
			} else {
				recovered(t, ts.URL)
			}
		}
	})

	t.Run("registry", func(t *testing.T) {
		for _, pressured := range []bool{true, false} {
			reg := NewRegistry()
			defer reg.Close()
			srv, err := reg.Add("prod", ds, Options{Workers: 1, ShedQueueHW: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Install(m); err != nil {
				t.Fatal(err)
			}
			if pressured {
				pressure(srv.gate)
			}
			ts := httptest.NewServer(reg)
			defer ts.Close()
			if pressured {
				check(t, ts.URL+"/models/prod", ts.URL+"/metrics")
			} else {
				recovered(t, ts.URL+"/models/prod")
			}
		}
	})
}

// TestQPSQuota pins the token bucket: with a quota of 1 qps and a
// frozen clock the first query spends the burst token and the second
// sheds; a one-second clock advance restores exactly one token.
func TestQPSQuota(t *testing.T) {
	g := newAdmitGate(Options{QPSLimit: 1}, nil)
	now := g.last
	g.now = func() time.Time { return now }

	release, err := g.admit()
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if g.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", g.Inflight())
	}
	release()
	if g.Inflight() != 0 {
		t.Fatalf("inflight after release = %d, want 0", g.Inflight())
	}
	if _, err := g.admit(); !errors.Is(err, errQuota) {
		t.Fatalf("second admit err = %v, want errQuota", err)
	}
	now = now.Add(time.Second)
	if _, err := g.admit(); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if _, err := g.admit(); !errors.Is(err, errQuota) {
		t.Fatalf("refill granted more than one token: %v", err)
	}
}

// TestQPSQuotaHTTP covers the quota over the wire: a near-zero limit
// leaves exactly the single burst token, so the first query answers
// and the second sheds with reason "quota".
func TestQPSQuotaHTTP(t *testing.T) {
	srv := overloadServer(t, Options{Workers: 1, QPSLimit: 0.0001})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body := getStatus(t, ts.URL+"/embed?ids=0"); code != http.StatusOK {
		t.Fatalf("burst-token request: code=%d body=%s", code, body)
	}
	code, body := getStatus(t, ts.URL+"/embed?ids=0")
	if code != http.StatusTooManyRequests || !strings.Contains(body, `"reason":"quota"`) {
		t.Fatalf("over-quota request: code=%d body=%s", code, body)
	}
}

// TestSheddingPreservesAnswerBytes is the determinism pin for the
// whole overload layer: under serial load (queue depth 0, quota never
// hit) a server with deadlines, shedding and a QPS quota enabled must
// answer every query byte-identically to one with the layer disabled.
// Overload protection decides whether a request is answered — never
// what an answered response contains.
func TestSheddingPreservesAnswerBytes(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")

	build := func(opts Options) *httptest.Server {
		srv := NewServer(ds, opts)
		t.Cleanup(srv.Close)
		if _, err := srv.Install(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	plain := build(Options{Workers: 1})
	guarded := build(Options{Workers: 1, Deadline: time.Minute, ShedQueueHW: 64, QPSLimit: 1e6})

	for _, q := range []string{
		"/embed?ids=0,1,2", "/predict?ids=3,4", "/topk?id=5&k=4",
		"/embed?ids=299", "/predict?ids=0", "/topk?id=0&k=3&mode=exact",
	} {
		c1, b1 := getStatus(t, plain.URL+q)
		c2, b2 := getStatus(t, guarded.URL+q)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("%s: codes %d vs %d", q, c1, c2)
		}
		if b1 != b2 {
			t.Fatalf("%s: guarded answer differs from plain:\n%s\nvs\n%s", q, b1, b2)
		}
	}
}

// TestRouterDeadlineAndCtxScatter exercises the context threading
// through the scatter-gather: an un-meetable router deadline answers
// 504, while a generous one on an identical fleet serves normally.
func TestRouterDeadlineAndCtxScatter(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	build := func(d time.Duration) *httptest.Server {
		rt, err := NewRouter(ds, Options{Workers: 1, Deadline: d}, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		if _, err := rt.Install(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt)
		t.Cleanup(ts.Close)
		return ts
	}

	code, body := getStatus(t, build(time.Nanosecond).URL+"/embed?ids=0,1,2")
	if code != http.StatusGatewayTimeout || !strings.Contains(body, `"reason":"deadline"`) {
		t.Fatalf("router expired deadline: code=%d body=%s", code, body)
	}
	if code, body = getStatus(t, build(time.Minute).URL+"/embed?ids=0,1,2"); code != http.StatusOK {
		t.Fatalf("router roomy-deadline request: code=%d body=%s", code, body)
	}
}
