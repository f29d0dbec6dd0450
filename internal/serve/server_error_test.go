package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/wire"
)

// doReq issues one request and returns status, the decoded error body
// (if any), and whether the response was well-formed JSON.
func doReq(tb testing.TB, method, url string, body string) (int, string, bool) {
	tb.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) != nil {
		return resp.StatusCode, string(raw), false
	}
	return resp.StatusCode, eb.Error, true
}

// TestServerErrorPaths sweeps every malformed-request class through
// the live handlers: each must come back as a clean 4xx/5xx with a
// JSON error body — no panics, no empty bodies, no 200s.
func TestServerErrorPaths(t *testing.T) {
	ds := testDataset(t, false) // 300 vertices
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"embed-malformed-json", "POST", "/embed", `{"ids": [1, 2`, http.StatusBadRequest},
		{"embed-wrong-json-shape", "POST", "/embed", `{"ids": "zero"}`, http.StatusBadRequest},
		{"embed-unknown-id", "GET", "/embed?ids=300", "", http.StatusBadRequest},
		{"embed-negative-id", "GET", "/embed?ids=-1", "", http.StatusBadRequest},
		{"embed-garbage-id", "GET", "/embed?ids=one,two", "", http.StatusBadRequest},
		{"embed-empty-ids", "POST", "/embed", `{"ids": []}`, http.StatusBadRequest},
		{"embed-wrong-method", "PUT", "/embed?ids=0", "", http.StatusMethodNotAllowed},
		{"predict-malformed-json", "POST", "/predict", `ids=1`, http.StatusBadRequest},
		{"predict-unknown-id", "GET", "/predict?ids=9999", "", http.StatusBadRequest},
		{"predict-wrong-method", "DELETE", "/predict?ids=0", "", http.StatusMethodNotAllowed},
		{"topk-missing-id", "GET", "/topk", "", http.StatusBadRequest},
		{"topk-unknown-id", "GET", "/topk?id=300&k=3", "", http.StatusBadRequest},
		{"topk-k-zero", "GET", "/topk?id=0&k=0", "", http.StatusBadRequest},
		{"topk-k-negative", "GET", "/topk?id=0&k=-4", "", http.StatusBadRequest},
		{"topk-k-over-v", "GET", "/topk?id=0&k=300", "", http.StatusBadRequest},
		{"topk-bad-k", "GET", "/topk?id=0&k=ten", "", http.StatusBadRequest},
		{"topk-bad-mode", "GET", "/topk?id=0&k=3&mode=fuzzy", "", http.StatusBadRequest},
		{"topk-bad-ef", "GET", "/topk?id=0&k=3&mode=ann&ef=zero", "", http.StatusBadRequest},
		{"topk-ef-nonpositive", "GET", "/topk?id=0&k=3&mode=ann&ef=0", "", http.StatusBadRequest},
		{"topk-ef-without-ann", "GET", "/topk?id=0&k=3&mode=exact&ef=32", "", http.StatusBadRequest},
		{"topk-wrong-method", "POST", "/topk?id=0&k=3", "", http.StatusMethodNotAllowed},
		{"reload-wrong-method", "GET", "/reload", "", http.StatusMethodNotAllowed},
		{"reload-malformed-json", "POST", "/reload", `{"path": 3`, http.StatusBadRequest},
		{"reload-missing-file", "POST", "/reload", `{"path": "/nonexistent/m.ckpt"}`, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, msg, isJSON := doReq(t, tc.method, ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d (body %q)", status, tc.wantStatus, msg)
			}
			if !isJSON {
				t.Errorf("response body is not JSON: %q", msg)
			}
			if msg == "" {
				t.Error("error body carries no message")
			}
		})
	}

	// The sweep must not have wedged the server.
	if code := getJSON(t, ts.URL+"/embed?ids=0", nil); code != 200 {
		t.Fatalf("healthy request after error sweep = %d", code)
	}
}

// TestTopKDefaultKClampedToTinyGraph pins the default-k contract on
// graphs smaller than the server's k=10 default: a request that sends
// no k must be answered with |V|-1 neighbors, while an explicit
// out-of-range k stays an error.
func TestTopKDefaultKClampedToTinyGraph(t *testing.T) {
	ds := datasets.Generate(datasets.Config{
		Name: "tiny", Vertices: 8, TargetEdges: 20,
		FeatureDim: 4, NumClasses: 2, Seed: 3,
	})
	srv := NewServer(ds, Options{Workers: 1})
	m := core.NewModel(ds, core.Config{Layers: 2, Hidden: 4, Workers: 1, Seed: 17})
	if _, err := srv.Install(m); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var res TopKResult
	if code := getJSON(t, ts.URL+"/topk?id=0", &res); code != 200 {
		t.Fatalf("default-k on 8-vertex graph = %d", code)
	}
	if len(res.Neighbors) != 7 || res.K != 7 {
		t.Fatalf("default-k answer = k=%d with %d neighbors, want 7", res.K, len(res.Neighbors))
	}
	if status, _, _ := doReq(t, "GET", ts.URL+"/topk?id=0&k=10", ""); status != http.StatusBadRequest {
		t.Fatalf("explicit k=10 on 8-vertex graph = %d, want 400", status)
	}
}

// TestReloadDuringQueries exercises the reload error path under
// concurrent load: queries hammer /topk (both modes) while reloads —
// half of them failing on a missing file — swap snapshots. Every
// query must answer 200 and every bad reload a clean 500, with the
// server fully live afterwards.
func TestReloadDuringQueries(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpts := []string{trainAndSave(t, ds, 1, dir), trainAndSave(t, ds, 2, dir)}
	srv := NewServer(ds, Options{Workers: 2, ANNEf: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpts[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mode := ModeExact
				if g%2 == 1 {
					mode = ModeANN
				}
				url := fmt.Sprintf("%s/topk?id=%d&k=3&mode=%s", ts.URL, i%300, mode)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("query during reload: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	for i := 0; i < 4; i++ {
		// Good reload, then a failing one against a missing path.
		if _, err := srv.Load(ckpts[i%2]); err != nil {
			t.Fatal(err)
		}
		status, msg, isJSON := doReq(t, "POST", ts.URL+"/reload", `{"path": "/nope.ckpt"}`)
		if status != http.StatusInternalServerError || !isJSON || msg == "" {
			t.Fatalf("bad reload = %d %q (json %v)", status, msg, isJSON)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("post-test health = %d %+v", code, health)
	}
	// A failed reload must not have disturbed the serving snapshot.
	if health.Version != 5 {
		t.Errorf("version after 1 load + 4 reloads = %d, want 5", health.Version)
	}
}

// TestTopKOneSnapshotUnderReload alternates two checkpoints under
// concurrent top-K queries and checks every answer against the
// reference for the version it reports: a query must take its vector
// and scan its table in one snapshot, never one version's vector
// against the next version's table (which would also be memoized
// under the wrong version). The reference is Engine.TopKWith, so the
// served path and the library call are held to the same answer —
// every field but the version — in exact mode, in ann mode at the
// default and an explicit ef, and where the beam covers the table and
// ann falls back to the exact scan.
func TestTopKOneSnapshotUnderReload(t *testing.T) {
	ds := testDataset(t, false) // 300 vertices
	dir := t.TempDir()
	ckpts := []string{trainAndSave(t, ds, 1, dir), trainAndSave(t, ds, 2, dir)}
	const ids, k = 64, 3
	queries := []struct {
		mode string
		ef   int
	}{{ModeExact, 0}, {ModeANN, 0}, {ModeANN, 24}, {ModeANN, 300}}
	var want [2][][ids]*TopKResult
	for c, path := range ckpts {
		ref := NewEngine(ds, Options{Workers: 1})
		if _, err := ref.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		want[c] = make([][ids]*TopKResult, len(queries))
		for qi, q := range queries {
			for id := range want[c][qi] {
				res, err := ref.TopKWith(id, k, q.mode, q.ef)
				if err != nil {
					t.Fatal(err)
				}
				want[c][qi][id] = res
			}
		}
	}
	srv := NewServer(ds, Options{Workers: 1})
	defer srv.Close()
	if _, err := srv.Load(ckpts[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, qi := i%ids, (g+i/ids)%len(queries) // goroutine g starts on query g
				res, err := srv.topK(context.Background(), func() (topkQuery, error) {
					return topkQuery{id: id, k: k, ann: queries[qi].mode == ModeANN, ef: queries[qi].ef}, nil
				})
				if err != nil {
					errs <- err
					return
				}
				// Version v was loaded from ckpts[(v-1)%2].
				got := res.(*TopKResult)
				ref := *want[(got.Version-1)%2][qi][id]
				ref.Version = got.Version
				if !reflect.DeepEqual(*got, ref) {
					errs <- fmt.Errorf("%+v id %d at version %d: got %+v, want %+v", queries[qi], id, got.Version, *got, ref)
					return
				}
			}
		}(g)
	}
	for v := 2; v <= 400; v++ {
		if _, err := srv.Load(ckpts[(v-1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestErrorTableAcrossTransports walks every row of errorTable — each
// sentinel bare and wrapped the way a fleet install wraps a shard's
// error — plus the no-row default, and requires the row's (status,
// reason) and the error's own message to come back identically over
// HTTP-JSON, the negotiated wire encoding and a framed-TCP exchange.
// The error is injected where a transport hands its decoded request
// to the operation, so it crosses the real operation and the real
// codecs; no status is ever chosen from the message text.
func TestErrorTableAcrossTransports(t *testing.T) {
	ds := testDataset(t, false)
	reg := NewRegistry()
	defer reg.Close()
	srv, err := reg.Add("m", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		err    error
		status int
		reason string
	}
	cases := []want{{errors.New("serve: no model loaded, says a caller mistake"), http.StatusBadRequest, ""}}
	for _, row := range errorTable {
		cases = append(cases,
			want{row.err, row.status, row.reason},
			want{fmt.Errorf("serve: shard %d: %w", 1, row.err), row.status, row.reason})
	}
	if len(cases) != 1+2*11 {
		t.Fatalf("errorTable has %d rows; update this walk", len(errorTable))
	}

	for _, tc := range cases {
		for _, predict := range []bool{false, true} {
			res, err := srv.point(context.Background(), func() ([]int, error) { return nil, tc.err }, predict)
			if err != tc.err {
				t.Fatalf("point passed %v through as %v", tc.err, err)
			}

			// HTTP-JSON.
			rec := httptest.NewRecorder()
			writeQuery(rec, httptest.NewRequest("GET", "/embed", nil), res, err)
			var body errorBody
			if jerr := json.Unmarshal(rec.Body.Bytes(), &body); jerr != nil {
				t.Fatalf("%v: JSON body %q: %v", tc.err, rec.Body, jerr)
			}
			if rec.Code != tc.status || body.Reason != tc.reason || body.Error != tc.err.Error() {
				t.Errorf("%v over JSON = %d %+v, want %d %q", tc.err, rec.Code, body, tc.status, tc.reason)
			}

			// Negotiated wire body over HTTP.
			wantFrame := wire.ErrorResponse{Status: tc.status, Reason: tc.reason, Message: tc.err.Error()}
			rec = httptest.NewRecorder()
			req := httptest.NewRequest("GET", "/embed", nil)
			req.Header.Set("Accept", wire.ContentType)
			writeQuery(rec, req, res, err)
			frame, _, derr := wire.Decode(rec.Body.Bytes())
			if got, ok := frame.(*wire.ErrorResponse); derr != nil || !ok || rec.Code != tc.status || *got != wantFrame {
				t.Errorf("%v over negotiated wire = %d %#v (%v), want %+v", tc.err, rec.Code, frame, derr, wantFrame)
			}
		}
	}

	// Framed TCP: the rows a frame can reach end to end answer with the
	// same table lookups — no model loaded, a closed server, and the
	// 400 default.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go reg.ServeWire(ln)
	c := dialWire(t, ln.Addr().String())
	exchange := func(req wire.Message, want wire.ErrorResponse) {
		t.Helper()
		c.send(req)
		if got, ok := c.recv().(*wire.ErrorResponse); !ok || *got != want {
			t.Errorf("%T over TCP = %#v, want %+v", req, got, want)
		}
	}
	exchange(&wire.EmbedRequest{IDs: []int{1}},
		wire.ErrorResponse{Status: http.StatusServiceUnavailable, Message: errNoModel.Error()})
	exchange(&wire.TopKRequest{ID: 1, K: 2},
		wire.ErrorResponse{Status: http.StatusServiceUnavailable, Message: errNoModel.Error()})
	exchange(&wire.PredictRequest{},
		wire.ErrorResponse{Status: http.StatusBadRequest, Message: "serve: no ids given"})
	srv.Close()
	exchange(&wire.PredictRequest{IDs: []int{1}},
		wire.ErrorResponse{Status: http.StatusServiceUnavailable, Message: errClosed.Error()})
	// And every row, through the frame codec the listener writes with.
	for _, tc := range cases {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := wire.WriteMessage(bw, wireErrFor(tc.err)); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadMessage(bufio.NewReader(&buf))
		wantFrame := wire.ErrorResponse{Status: tc.status, Reason: tc.reason, Message: tc.err.Error()}
		if got, ok := frame.(*wire.ErrorResponse); err != nil || !ok || *got != wantFrame {
			t.Errorf("%v as a TCP frame = %#v (%v), want %+v", tc.err, frame, err, wantFrame)
		}
	}
}

// countingBody counts the bytes a handler reads from a request body.
type countingBody struct {
	r io.Reader
	n int
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestRequestBodyCapped: a POST body longer than maxBodyBytes answers
// 400 with the cap's error on every endpoint that reads one, and the
// handler stops reading just past the cap instead of decoding the rest
// (8 MiB here, four million ids). The longest id list the count limit
// rejects — 4097 ids of the widest valid width — still fits under the
// cap and keeps its own error text.
func TestRequestBodyCapped(t *testing.T) {
	srv := overloadServer(t, Options{Workers: 1})
	post := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
		return rec
	}
	huge := `{"ids":[` + strings.Repeat("1,", 4<<20) + `1]}`
	for _, path := range []string{"/embed", "/predict", "/reload"} {
		body := &countingBody{r: strings.NewReader(huge)}
		rec := post(path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "http: request body too large") {
			t.Errorf("%s, %d-byte body: code=%d body=%.200s", path, len(huge), rec.Code, rec.Body)
		}
		if body.n > maxBodyBytes+512 {
			t.Errorf("%s read %d bytes of an over-cap body (cap %d)", path, body.n, maxBodyBytes)
		}
	}
	widest := `{"ids":[` + strings.Repeat("1999999999, ", maxQueryIDs) + `1999999999]}`
	for _, path := range []string{"/embed", "/predict"} {
		rec := post(path, strings.NewReader(widest))
		want := fmt.Sprintf("serve: %d ids exceeds the per-request limit of %d", maxQueryIDs+1, maxQueryIDs)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s, %d ids in %d bytes: code=%d body=%.200s", path, maxQueryIDs+1, len(widest), rec.Code, rec.Body)
		}
	}
}

// TestEveryRouteRefusesUnlistedMethods: every route RegisteredRoutes
// lists answers each method it does not list with a 405 in the JSON
// envelope — under both spellings, on an unsharded and a 3-shard
// Server and through a Registry (the /models routes and the legacy
// ones). Shard routes on an unsharded model are left out: they 404.
func TestEveryRouteRefusesUnlistedMethods(t *testing.T) {
	ds := testDataset(t, false)
	ckpt := trainAndSave(t, ds, 1, t.TempDir())
	reg := NewRegistry()
	defer reg.Close()
	plain, err := reg.Add("plain", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := reg.AddSharded("fleet", ds, Options{Workers: 1}, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{plain, fleet} {
		if _, err := s.Load(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, h http.Handler, method, path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		var body errorBody
		jerr := json.Unmarshal(rec.Body.Bytes(), &body)
		if rec.Code != http.StatusMethodNotAllowed || jerr != nil || body.Error == "" ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s %s = %d %q, want a 405 JSON envelope", label, method, path, rec.Code, rec.Body)
		}
	}
	checked := 0
	for _, r := range RegisteredRoutes() {
		shardRoute := strings.Contains(r.Pattern, "/shards")
		path := strings.ReplaceAll(r.Pattern, "{i}", "1")
		for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
			if strings.Contains(r.Methods, method) {
				continue
			}
			checked++
			named := func(name string) string { return strings.ReplaceAll(path, "{name}", name) }
			if !shardRoute { // the legacy routes reach the default model, plain
				check("registry", reg, method, named("plain"))
			}
			if strings.Contains(r.Pattern, "{name}") {
				check("registry", reg, method, named("fleet"))
				continue
			}
			if stripV1(r.Pattern) == "/models" {
				continue
			}
			if !shardRoute {
				check("unsharded", plain, method, path)
			}
			check("shards3", fleet, method, path)
		}
	}
	if checked == 0 {
		t.Fatal("no route has an unlisted method")
	}
}

// TestOneModelLookupEdges holds the edges of the registry's one model
// lookup to their status, message and billing: each HTTP refusal is
// counted on the gsgcn_http_requests_total{endpoint="other"} series of
// the instruments it has always been billed to — the registry's for an
// unknown model, an empty registry or an unknown endpoint, the model's
// own for a shard operation on an unsharded model — and a request
// frame on gsgcn_requests_total{transport="wire"} of the registry or
// of the model it reached.
func TestOneModelLookupEdges(t *testing.T) {
	ds := testDataset(t, false)
	empty := NewRegistry()
	defer empty.Close()
	reg := NewRegistry()
	defer reg.Close()
	plain, err := reg.Add("plain", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := func(mm *modelMetrics, class int) uint64 { return mm.endpoints[epOther].byClass[class].Value() }
	cases := []struct {
		reg    *Registry
		path   string
		status int
		msg    string
		billed *modelMetrics
	}{
		// An empty name is unknown under /models/: it does not fall
		// through to the default model.
		{reg, "/models//embed?ids=0", http.StatusNotFound, `serve: unknown model ""`, reg.inst},
		{empty, "/embed?ids=0", http.StatusServiceUnavailable, "serve: no models registered", empty.inst},
		{reg, "/models/nope/embed?ids=0", http.StatusNotFound, `serve: unknown model "nope"`, reg.inst},
		{reg, "/models/plain/nope", http.StatusNotFound, `serve: unknown endpoint "nope" for model "plain"`, reg.inst},
		{reg, "/models/plain/shards/0/stop", http.StatusNotFound, `serve: model "plain" is not sharded`, plain.inst},
	}
	for _, tc := range cases {
		for _, path := range []string{tc.path, "/v1" + tc.path} {
			class := tc.status/100 - 2
			before := other(tc.billed, class)
			rec := httptest.NewRecorder()
			tc.reg.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			want, _ := json.Marshal(errorBody{Error: tc.msg})
			if rec.Code != tc.status || rec.Body.String() != string(want)+"\n" {
				t.Errorf("GET %s = %d %q, want %d %s", path, rec.Code, rec.Body, tc.status, want)
			}
			if got := other(tc.billed, class) - before; got != 1 {
				t.Errorf("GET %s billed %d to its endpoint=\"other\" series, want 1", path, got)
			}
		}
	}

	frames := []struct {
		reg    *Registry
		model  string
		status int
		msg    string
		billed *modelMetrics
	}{
		{reg, "nope", http.StatusNotFound, `serve: unknown model "nope"`, reg.inst},
		{empty, "", http.StatusServiceUnavailable, "serve: no models registered", empty.inst},
		// A frame naming no model reaches the default one (not yet loaded).
		{reg, "", http.StatusServiceUnavailable, errNoModel.Error(), plain.inst},
	}
	for _, tc := range frames {
		before := tc.billed.reqWire.Value()
		got := tc.reg.answerWire(context.Background(), &wire.EmbedRequest{Model: tc.model, IDs: []int{0}})
		want := wire.ErrorResponse{Status: tc.status, Message: tc.msg}
		if er, ok := got.(*wire.ErrorResponse); !ok || *er != want {
			t.Errorf("embed frame for model %q = %#v, want %+v", tc.model, got, want)
		}
		if n := tc.billed.reqWire.Value() - before; n != 1 {
			t.Errorf("embed frame for model %q billed %d wire requests, want 1", tc.model, n)
		}
	}
}

// TestFailureClassReadsTheTable: a client that receives a row's
// (status, reason) gets the row's class back — also without the
// reason, so rows sharing a status must share a class — and a status
// no row produces falls back to its family.
func TestFailureClassReadsTheTable(t *testing.T) {
	for _, row := range errorTable {
		for _, reason := range []string{row.reason, ""} {
			if got := FailureClass(row.status, reason); got != row.class {
				t.Errorf("FailureClass(%d, %q) = %q, want row %v's %q", row.status, reason, got, row.err, row.class)
			}
		}
	}
	for status, want := range map[int]string{400: "client_error", 418: "client_error", 502: "server_error"} {
		if got := FailureClass(status, ""); got != want {
			t.Errorf("FailureClass(%d, \"\") = %q, want %q", status, got, want)
		}
	}
}
