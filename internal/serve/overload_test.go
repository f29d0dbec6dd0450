package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gsgcn/internal/ann"
	"gsgcn/internal/obs"
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

// TestSubmitSkipsInvalidQueries: a point query that fails validation is
// answered with its error but burns no batch id and moves no stats or
// histograms, so the next valid query is still batch 1.
func TestSubmitSkipsInvalidQueries(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	eng := NewEngine(ds, Options{Workers: 1})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	b := &shard{eng: eng}
	reg := obs.NewRegistry()
	b.instrument(reg, nil, newAdmitGate(Options{}))
	observed := func(want int) {
		t.Helper()
		var text strings.Builder
		if err := reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		for _, h := range []string{"gsgcn_batcher_batch_size_count", "gsgcn_batcher_flush_duration_seconds_count"} {
			if series := fmt.Sprintf("%s %d\n", h, want); !strings.Contains(text.String(), series) {
				t.Fatalf("scrape lacks %q:\n%s", series, text.String())
			}
		}
	}

	if resp := b.point(context.Background(), []int{99999}, false); resp.err == nil || resp.batch != 0 {
		t.Fatalf("invalid query: batch=%d err=%v, want an error and no batch", resp.batch, resp.err)
	}
	if n := b.answered.Load(); n != 0 {
		t.Fatalf("invalid query burned %d batch ids", n)
	}
	observed(0)
	if resp := b.point(context.Background(), []int{1}, false); resp.err != nil || resp.batch != 1 {
		t.Fatalf("first valid query: batch=%d err=%v, want batch 1", resp.batch, resp.err)
	}
	observed(1)
}

// TestSubmitEndedContextRunsNothing: a query whose context has already
// ended — canceled, or past its deadline — is refused with the
// context's error and the "before enqueue" text, and is never run: no
// batch id.
func TestSubmitEndedContextRunsNothing(t *testing.T) {
	ds := testDataset(t, false)
	eng := NewEngine(ds, Options{Workers: 1})
	if _, err := eng.Install(testModel(t, ds, 2, "mean")); err != nil {
		t.Fatal(err)
	}
	b := &shard{eng: eng}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithTimeout(context.Background(), -time.Second)
	defer cancel2()
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{canceled, context.Canceled}, {expired, context.DeadlineExceeded}} {
		for _, predict := range []bool{false, true} {
			resp := b.point(c.ctx, []int{0}, predict)
			if !errors.Is(resp.err, c.want) || !strings.Contains(resp.err.Error(), "before enqueue") {
				t.Fatalf("predict=%v: err = %v, want %v before enqueue", predict, resp.err, c.want)
			}
			if resp.batch != 0 || resp.embed != nil || resp.pred != nil {
				t.Fatalf("predict=%v: an ended context was answered: %+v", predict, resp)
			}
		}
	}
	if n := b.answered.Load(); n != 0 {
		t.Fatalf("ended contexts burned %d batch ids", n)
	}
}

// TestSubmitNumbersBatchesAndCapsRows: consecutive point queries are
// consecutive batches of one, each answer equals the Engine's direct
// answer, and every embedding row is capped so an append cannot reach
// the next row of the gather.
func TestSubmitNumbersBatchesAndCapsRows(t *testing.T) {
	ds := testDataset(t, false)
	eng := NewEngine(ds, Options{Workers: 1})
	if _, err := eng.Install(testModel(t, ds, 2, "mean")); err != nil {
		t.Fatal(err)
	}
	b := &shard{eng: eng}
	ids := []int{4, 1, 4}
	wantEmbed, err := eng.Embed(ids)
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := eng.Predict(ids)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		predict := i%2 == 1
		resp := b.point(context.Background(), ids, predict)
		if resp.err != nil {
			t.Fatalf("submit %d: %v", i, resp.err)
		}
		if resp.batch != uint64(i+1) {
			t.Errorf("submit %d answered by batch %d, want %d", i, resp.batch, i+1)
		}
		if predict {
			if !reflect.DeepEqual(resp.pred, wantPred) {
				t.Errorf("submit %d: predict %+v != direct %+v", i, resp.pred, wantPred)
			}
			continue
		}
		if !reflect.DeepEqual(resp.embed, wantEmbed) {
			t.Errorf("submit %d: embed %+v != direct %+v", i, resp.embed, wantEmbed)
		}
		for j, row := range resp.embed.Vectors {
			if cap(row) != len(row) {
				t.Errorf("submit %d row %d: len %d, cap %d", i, j, len(row), cap(row))
			}
		}
	}
	if n := b.answered.Load(); n != 4 {
		t.Errorf("batches = %d after 4 answered queries, want 4", n)
	}
}

// TestPointPanicReleasesInflight: a panic while a shard answers unwinds
// through the query but must not leave it counted in flight — the model
// would read one deeper forever and -shed-queue would shed early.
func TestPointPanicReleasesInflight(t *testing.T) {
	srv := overloadServer(t, Options{Workers: 1, ShedQueueHW: 1})
	good := srv.shards[0].eng
	srv.shards[0].eng = nil // no engine: the shard's answer panics
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a point query on a nil engine did not panic")
			}
		}()
		srv.point(context.Background(), func() ([]int, error) { return []int{0}, nil }, false)
	}()
	srv.shards[0].eng = good
	if n := srv.gate.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after the query panicked", n)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/embed?ids=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after the panic: code=%d body=%s", rec.Code, rec.Body)
	}
}

// holdIndexBuild occupies the lazy HNSW build of e's current snapshot,
// as a slow first build would: every ANN probe of that snapshot blocks
// until the returned release runs (at the latest on cleanup), which
// then builds the index.
func holdIndexBuild(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	held, hold := make(chan struct{}), make(chan struct{})
	go st.annOnce.Do(func() {
		close(held)
		<-hold
		st.annIdx.Store(ann.Build(st.Emb, st.norms, e.opts.annParams(), e.opts.Workers))
	})
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return release
}

// waitInflight waits until srv's gate counts n admitted queries.
func waitInflight(t *testing.T, srv *Server, n int64) {
	t.Helper()
	for give := time.Now().Add(30 * time.Second); srv.gate.Inflight() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(give) {
			t.Fatalf("inflight = %d, want %d", srv.gate.Inflight(), n)
		}
	}
}

// heldTopK is an ANN query: on a snapshot whose index build is held it
// stays in flight until the build is released.
const heldTopK = "/topk?id=0&k=3&mode=ann&ef=16"

// TestShedCountsQueriesInFlight drives the real depth probe, not a
// pinned one: with ShedQueueHW 1, a /topk held in a slow index build on
// one shard of three is the model's one query in flight, so every
// operation sheds with 429 "shed" and gsgcn_batcher_queue_depth reads 1
// on every shard; once it answers, the model admits again.
func TestShedCountsQueriesInFlight(t *testing.T) {
	ds := testDataset(t, false)
	rt, err := NewRouter(ds, Options{Workers: 1, ShedQueueHW: 1}, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Install(testModel(t, ds, 2, "mean")); err != nil {
		t.Fatal(err)
	}
	get := func(q string) (int, string) {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", q, nil))
		return rec.Code, rec.Body.String()
	}

	release := holdIndexBuild(t, rt.shards[2].eng)
	held := make(chan int, 1)
	go func() {
		code, _ := get(heldTopK)
		held <- code
	}()
	waitInflight(t, rt, 1)
	for _, q := range []string{"/embed?ids=0", "/predict?ids=0", "/topk?id=0&k=3"} {
		if code, body := get(q); code != http.StatusTooManyRequests || !strings.Contains(body, `"reason":"shed"`) {
			t.Fatalf("one query in flight: %s = %d %s, want 429 shed", q, code, body)
		}
	}
	_, scrape := get("/metrics")
	for i := 0; i < 3; i++ {
		if series := fmt.Sprintf(`gsgcn_batcher_queue_depth{model="default",shard="%d"} 1`, i); !strings.Contains(scrape, series) {
			t.Errorf("scrape lacks %s", series)
		}
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held query answered %d", code)
	}
	if code, body := get("/embed?ids=0"); code != http.StatusOK {
		t.Fatalf("after the held query answered: code=%d body=%s", code, body)
	}
}

// TestDeadlineExpires covers the per-model deadline end to end on
// both operations: an un-meetable deadline answers 504 with reason
// "deadline", a generous one answers 200, and a client that has already
// gone away gets 503 with reason "canceled".
func TestDeadlineExpires(t *testing.T) {
	expired := httptest.NewServer(overloadServer(t, Options{Workers: 1, Deadline: time.Nanosecond}))
	defer expired.Close()
	roomy := overloadServer(t, Options{Workers: 1, Deadline: time.Minute})
	tsR := httptest.NewServer(roomy)
	defer tsR.Close()

	for _, q := range []string{"/embed?ids=0", "/topk?id=7&k=3"} {
		checkDeadlines(t, expired.URL, tsR.URL, roomy, q)
	}
}

// checkDeadlines asserts the three deadline outcomes of query q: 504
// "deadline" from the server at expiredURL, 200 from the one at
// roomyURL, and 503 "canceled" from roomy for a request whose context
// has already ended.
func checkDeadlines(t *testing.T, expiredURL, roomyURL string, roomy http.Handler, q string) {
	t.Helper()
	code, body := getStatus(t, expiredURL+q)
	if code != http.StatusGatewayTimeout || !strings.Contains(body, `"reason":"deadline"`) {
		t.Fatalf("%s, expired deadline: code=%d body=%s", q, code, body)
	}
	if code, body = getStatus(t, roomyURL+q); code != http.StatusOK {
		t.Fatalf("%s, roomy deadline: code=%d body=%s", q, code, body)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	roomy.ServeHTTP(rec, httptest.NewRequest("GET", q, nil).WithContext(gone))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"reason":"canceled"`) {
		t.Fatalf("%s, canceled client: code=%d body=%s", q, rec.Code, rec.Body)
	}
}

// deadlineRouter builds a loaded fleet of shards engines with a 1 ms
// deadline.
func deadlineRouter(t *testing.T, shards int) *Server {
	t.Helper()
	ds := testDataset(t, false)
	rt, err := NewRouter(ds, Options{Workers: 1, Deadline: time.Millisecond}, shards, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.Install(testModel(t, ds, 2, "mean")); err != nil {
		t.Fatal(err)
	}
	return rt
}

// slowBody is a request body that takes delay to start arriving.
type slowBody struct {
	delay time.Duration
	r     io.Reader
}

func (b *slowBody) Read(p []byte) (int, error) {
	time.Sleep(b.delay)
	b.delay = 0
	return b.r.Read(p)
}

// TestDeadlineCountsFromArrival: the deadline clock starts when a query
// arrives, so a POST body slower than the deadline fails with 504
// "deadline" and no shard runs, at one shard and at three.
func TestDeadlineCountsFromArrival(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rt := deadlineRouter(t, shards)
		for _, path := range []string{"/embed", "/predict"} {
			body := &slowBody{delay: 5 * time.Millisecond, r: strings.NewReader(`{"ids":[0,1,2]}`)}
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
			if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"reason":"deadline"`) {
				t.Fatalf("shards=%d %s, body slower than the deadline: code=%d body=%s", shards, path, rec.Code, rec.Body)
			}
		}
		for i := range rt.shards {
			if n := rt.shards[i].answered.Load(); n != 0 {
				t.Errorf("shards=%d: shard %d answered %d queries past their deadline", shards, i, n)
			}
		}
	}
}

// lateTimerCtx is a context whose deadline has passed but whose
// cancelling timer has not run yet: Err is still nil.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestEndedCountsAPassedDeadline: a step about to start fails with
// DeadlineExceeded once the clock is past the deadline, without
// waiting for the context's timer — which a loaded host can run late.
func TestEndedCountsAPassedDeadline(t *testing.T) {
	if err := ended(lateTimerCtx{context.Background()}, "before enqueue"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("passed deadline, timer not yet run: err = %v, want DeadlineExceeded", err)
	}
	if err := ended(context.Background(), "before enqueue"); err != nil {
		t.Errorf("no deadline: err = %v", err)
	}
}

// TestDeadlineBindsSlowTopK: a /topk whose probe outlasts the deadline —
// a first ANN query held in a shard's lazy index build — answers 504
// "deadline" instead of a late 200, at one shard and at three. A query
// whose client has already gone starts no probe, so it does not wait on
// the build either.
func TestDeadlineBindsSlowTopK(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rt := deadlineRouter(t, shards)
		release := holdIndexBuild(t, rt.shards[shards-1].eng)
		done := make(chan *httptest.ResponseRecorder, 1)
		query := func(ctx context.Context) {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest("GET", heldTopK, nil).WithContext(ctx))
			done <- rec
		}

		gone, cancel := context.WithCancel(context.Background())
		cancel()
		go query(gone)
		select {
		case rec := <-done:
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"reason":"canceled"`) {
				t.Fatalf("shards=%d, canceled client: code=%d body=%s", shards, rec.Code, rec.Body)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("shards=%d: a canceled query waited on the held index build", shards)
		}

		go query(context.Background())
		waitInflight(t, rt, 1)
		time.Sleep(5 * time.Millisecond)
		release()
		if rec := <-done; rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"reason":"deadline"`) {
			t.Fatalf("shards=%d, probe slower than the deadline: code=%d body=%s", shards, rec.Code, rec.Body)
		}
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
	g := newAdmitGate(Options{QPSLimit: 1})
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
// through the scatter-gather and the top-K probes on a 3-shard fleet:
// the same three outcomes as TestDeadlineExpires.
func TestRouterDeadlineAndCtxScatter(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	build := func(d time.Duration) *Server {
		rt, err := NewRouter(ds, Options{Workers: 1, Deadline: d}, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		if _, err := rt.Install(m); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	expired := httptest.NewServer(build(time.Nanosecond))
	defer expired.Close()
	roomy := build(time.Minute)
	tsR := httptest.NewServer(roomy)
	defer tsR.Close()

	for _, q := range []string{"/embed?ids=0,1,2", "/topk?id=7&k=3"} {
		checkDeadlines(t, expired.URL, tsR.URL, roomy, q)
	}
}
