package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gsgcn/internal/wire"
)

// TestCloseRacesPointQueries is the close-race regression test, at one
// shard and at three: goroutines hammering /embed and /predict while
// Close fires — from two goroutines at once — must each get either the
// reference bytes (an untouched server's answer) or 503 "serve: server
// closed", and none may hang. Run under -race this also proves the
// closed flag is the only state Close and the queries share.
func TestCloseRacesPointQueries(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	build := func(t *testing.T, shards int) *Server {
		s, err := NewRouter(ds, Options{Workers: 2}, shards, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Install(m); err != nil {
			t.Fatal(err)
		}
		return s
	}
	query := func(h http.Handler, g, i int) (int, string) {
		path := fmt.Sprintf("/embed?ids=%d,%d", (g+i)%300, (g*37+i)%300)
		if g%2 == 1 {
			path = fmt.Sprintf("/predict?ids=%d", (g+i)%300)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	closedBody := `{"error":"serve: server closed"}` + "\n"

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref := build(t, shards)
			defer ref.Close()
			for round := 0; round < 4; round++ {
				srv := build(t, shards)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						for i := 0; i < 50; i++ {
							code, body := query(srv, g, i)
							if code == http.StatusServiceUnavailable && body == closedBody {
								return
							}
							if wantCode, want := query(ref, g, i); code != wantCode || body != want {
								t.Errorf("query racing Close = %d %s, want the reference %d %s or 503 closed",
									code, body, wantCode, want)
								return
							}
						}
					}(g)
				}
				for c := 0; c < 2; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						srv.Close()
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				close(start)
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("round %d: a query racing Close never returned", round)
				}
				if code, body := query(srv, 0, 0); code != http.StatusServiceUnavailable || body != closedBody {
					t.Fatalf("query after Close = %d %s", code, body)
				}
			}
		})
	}
}

// TestStrictVertexIDParsing pins the one-parser contract: every
// surface form strconv.Atoi would have quietly accepted (signs,
// spaces, huge tokens) is a 400 with the same error body on /embed,
// /predict and /topk — and identically on a single-process server and
// a sharded router, so malformed requests cannot distinguish the two
// deployments.
func TestStrictVertexIDParsing(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	srv := NewServer(ds, Options{Workers: 1})
	defer srv.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	rt := newTestRouter(t, Options{Workers: 1}, 2, 5, ckpt)
	defer rt.Close()
	srvTS := httptest.NewServer(srv)
	defer srvTS.Close()
	rtTS := httptest.NewServer(rt)
	defer rtTS.Close()

	// Each id token below is pre-escaped for a URL query: %2B is "+",
	// %20 a space. wantTok is the token as the parser sees it after
	// query decoding, named in the uniform error body.
	rejected := []struct{ raw, wantTok string }{
		{"%2B3", "+3"},                 // explicit plus sign (Atoi accepts this)
		{"-1", "-1"},                   // sign, even for a "valid" number
		{"%203", " 3"},                 // leading space
		{"3%20", "3 "},                 // trailing space
		{"", ""},                       // empty token (ids=5,,7 style)
		{"0x1f", "0x1f"},               // hex
		{"1e2", "1e2"},                 // scientific notation
		{"12345678901", "12345678901"}, // longer than any valid id
		{"nope", "nope"},
	}
	endpoints := []struct{ name, path string }{
		{"embed", "/embed?ids="},
		{"predict", "/predict?ids="},
		{"topk", "/topk?k=3&id="},
	}
	for _, tok := range rejected {
		raw, err := json.Marshal(errorBody{
			Error: fmt.Sprintf("serve: bad vertex id %q (want plain decimal digits)", tok.wantTok),
		})
		if err != nil {
			t.Fatal(err)
		}
		wantBody := string(raw)
		for _, ep := range endpoints {
			for _, deploy := range []struct {
				name string
				url  string
			}{{"server", srvTS.URL}, {"router", rtTS.URL}} {
				t.Run(fmt.Sprintf("%s-%s-%q", deploy.name, ep.name, tok.wantTok), func(t *testing.T) {
					code, body := get(t, deploy.url+ep.path+tok.raw)
					// A fully empty parameter reads as missing — a
					// different (also uniform) message per endpoint.
					if tok.wantTok == "" {
						if code != 400 || !strings.Contains(string(body), "missing id") {
							t.Fatalf("= %d %s", code, body)
						}
						return
					}
					if code != 400 {
						t.Fatalf("status = %d, want 400 (body %s)", code, body)
					}
					if strings.TrimSpace(string(body)) != wantBody {
						t.Fatalf("body = %s, want %s", body, wantBody)
					}
				})
			}
		}
	}

	// Digits-only forms stay accepted, leading zeros included.
	for _, ok := range []string{"3", "003", "0"} {
		for _, base := range []string{srvTS.URL, rtTS.URL} {
			if code, body := get(t, base+"/embed?ids="+ok); code != 200 {
				t.Errorf("ids=%s = %d %s, want 200", ok, code, body)
			}
		}
	}
}

// TestClosedServerFailsEveryQuery pins the one closed state: after
// Close, every query endpoint answers errClosed — 503 "serve: server
// closed" — over HTTP-JSON, the negotiated wire encoding and framed
// TCP, at one shard and at two. (Before Server and Router were one
// type a closed unsharded server still answered /topk 200: it bypassed
// the batcher, and an Engine has no closed state.)
func TestClosedServerFailsEveryQuery(t *testing.T) {
	ds := testDataset(t, false)
	ckpt := trainAndSave(t, ds, 1, t.TempDir())
	for _, shards := range []int{1, 2} {
		reg := NewRegistry()
		srv, err := reg.AddSharded("m", ds, Options{Workers: 1}, shards, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Load(ckpt); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(reg)
		defer ts.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go reg.ServeWire(ln)
		if code, _, _ := fetch(t, "GET", ts.URL+"/topk?id=3&k=2", nil); code != http.StatusOK {
			t.Fatalf("shards=%d: /topk before Close = %d", shards, code)
		}
		reg.Close()

		want := wire.ErrorResponse{Status: http.StatusServiceUnavailable, Message: errClosed.Error()}
		for _, path := range []string{"/embed?ids=3", "/predict?ids=3", "/topk?id=3&k=2", "/models/m/topk?id=3&k=2&mode=ann"} {
			code, _, raw := fetch(t, "GET", ts.URL+path, nil)
			var body errorBody
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("shards=%d %s: body %q: %v", shards, path, raw, err)
			}
			if code != want.Status || body.Error != want.Message || body.Reason != "" {
				t.Errorf("shards=%d json %s = %d %s", shards, path, code, raw)
			}
			code, _, raw = fetch(t, "GET", ts.URL+path, map[string]string{"Accept": wire.ContentType})
			frame, _, err := wire.Decode(raw)
			if got, ok := frame.(*wire.ErrorResponse); err != nil || !ok || code != want.Status || *got != want {
				t.Errorf("shards=%d wire %s = %d %#v (%v)", shards, path, code, frame, err)
			}
		}
		c := dialWire(t, ln.Addr().String())
		for _, req := range []wire.Message{
			&wire.EmbedRequest{IDs: []int{3}},
			&wire.PredictRequest{Model: "m", IDs: []int{3}},
			&wire.TopKRequest{ID: 3, K: 2},
		} {
			c.send(req)
			if got, ok := c.recv().(*wire.ErrorResponse); !ok || *got != want {
				t.Errorf("shards=%d tcp %T = %#v", shards, req, got)
			}
		}
	}
}
