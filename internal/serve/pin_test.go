package serve

// Cross-commit serving pin (ISSUE 14). Once an unsharded model and a
// sharded one are the same type, TestRouterByteIdenticalExact at one
// shard compares the code with itself, and every other exactness suite
// compares one build against itself too. The constants below were
// recorded at the commit before Server and Router were folded together
// (00c68d1: two types, two handler sets) on linux/amd64: the CRC-64 of
// status + body for a fixed, sequential query list against an unsharded
// model and a 3-shard one, one body per reachable error-table row, and
// the sorted set of /metrics series. A build whose serving surface
// differs in any byte fails here. As in internal/core/pin_test.go the
// embedding bits are promised on amd64 only.

import (
	"context"
	"fmt"
	"hash/crc64"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gsgcn/internal/wire"
)

// servingPins maps "deployment step" to the CRC-64/ECMA of
// "<status>\n<body>" (temp-dir prefixes replaced by $TMP).
var servingPins = map[string]uint64{
	"unsharded GET /embed?ids=0":                   0xc5da42057ff3c747,
	"unsharded GET /topk?id=0&k=3":                 0xc5da42057ff3c747,
	"unsharded GET /healthz":                       0x5c551241cd0ff3c4,
	"unsharded GET /embed?ids=0,7,42,299":          0x5bc73ab51e2ec91e,
	"unsharded GET /v1/embed?ids=5":                0xe4375bd5e748cafd,
	"unsharded POST /embed ids":                    0x77158b3814b3bf52,
	"unsharded GET /predict?ids=0,7,42,299":        0xdc41eea111baf7ec,
	"unsharded POST /predict ids":                  0xcc8fcf428162645b,
	"unsharded GET /topk?id=7&k=10&mode=exact":     0xb2493bfadf086f47,
	"unsharded GET /topk?id=7&k=10&mode=exact #2":  0xb2493bfadf086f47,
	"unsharded GET /topk?id=42&k=8&mode=ann&ef=32": 0xa3b79b48c40505b3,
	"unsharded GET /topk?id=0&k=299&mode=ann":      0x419cc8efc6c42bdc,
	"unsharded GET /topk?id=5":                     0x245a6bbe6dfc462a,
	"unsharded wire GET /embed?ids=9,200":          0xc4edd8316f4345b8,
	"unsharded GET /embed?ids=300":                 0xe8a84a4ef9eb0f3d,
	"unsharded GET /embed?ids=+3":                  0x9dd378b8b867906a,
	"unsharded GET /topk?id=7&k=0":                 0x5a2272b7ca223663,
	"unsharded GET /topk?id=7&k=3&mode=fuzzy":      0x65f47af3128ea8e4,
	"unsharded GET /topk?id=7&k=3&mode=exact&ef=9": 0x97fe435ba2a8b0c1,
	"unsharded POST /topk?id=0&k=3 method":         0x7e73858677b08746,
	"unsharded PUT /embed":                         0x5825039d529bb2a4,
	"unsharded wire GET /predict?ids=300":          0x85b9f862887e9abc,
	"unsharded expired GET /embed":                 0x44ee0e866a37981a,
	"unsharded canceled GET /predict":              0x91297502ddb36fe4,
	"unsharded GET /nope":                          0xf95ba22885484b47,
	"unsharded GET //embed?ids=0":                  0xc434ce30eb3c97a,
	"unsharded GET /a/../embed?ids=0":              0xc434ce30eb3c97a,
	"unsharded GET /shards//1/stop":                0x8108344f9ff49f9,
	"unsharded GET /shards":                        0xd74d5e10dcd67796,
	"unsharded POST /shards/1/stop stop":           0x771cb602f1804fe6,
	"unsharded GET /embed?ids=0,1,2,3,4,5":         0xa9d9b312dc2b9e42,
	"unsharded GET /topk?id=7&k=4":                 0xc09652770eb0a8a0,
	"unsharded GET /predict?ids=1":                 0x11ebe1609c338ce4,
	"unsharded GET /topk?id=1&k=4":                 0x92c31fae48c8ddf0,
	"unsharded GET /predict?ids=2":                 0xcef627fe22c8bf5f,
	"unsharded GET /topk?id=2&k=4":                 0x7bb53654c9d15e0d,
	"unsharded GET /predict?ids=3":                 0x18ab76bf8a29756f,
	"unsharded GET /topk?id=3&k=4":                 0xfc66ab3c6f62fd05,
	"unsharded GET /predict?ids=4":                 0x7fd18d0d626bedda,
	"unsharded GET /topk?id=4&k=4":                 0x9f3e8be7e81dc2ff,
	"unsharded GET /healthz #2":                    0xc55e82b01b2627e3,
	"unsharded POST /shards/1/start start":         0x3a1f9c39ba06f5d5,
	"unsharded GET /topk?id=3&k=4 #2":              0xfc66ab3c6f62fd05,
	"unsharded POST /shards/9/stop range":          0x3a433ed51496c95e,
	"unsharded POST /reload ok":                    0x9665037323eefe43,
	"unsharded POST /reload missing":               0xe498c596fbec5ed8,
	"unsharded POST /reload bad-json":              0x8a047163aaf3c8d1,
	"unsharded GET /reload":                        0x20541cad1a12c21b,
	"unsharded GET /predict?ids=1,2":               0xe81937816bbdd7b,
	"unsharded GET /healthz #3":                    0x3f6f6ba7569b99a7,
	"unsharded metrics series":                     0x48aa35b2a0fe04b5,
	"unsharded GET /embed?ids=0 #2":                0x647b712185ee7b5,
	"unsharded GET /predict?ids=0":                 0x647b712185ee7b5,
	"unsharded GET /embed?ids=nope":                0x9145eab201bb676,
	"unsharded GET /topk?id=0&k=3 #2":              0x9145eab201bb676,
	"unsharded GET /healthz #4":                    0x5c551241cd0ff3c4,
	"unsharded GET /embed?ids=0 #3":                0xc5da42057ff3c747,
	"unsharded GET /predict?ids=0 #2":              0x2525d560ef49ff64,
	"shards3 GET /embed?ids=0":                     0xc5da42057ff3c747,
	"shards3 GET /topk?id=0&k=3":                   0xc5da42057ff3c747,
	"shards3 GET /healthz":                         0xcac68d599980c9d2,
	"shards3 GET /embed?ids=0,7,42,299":            0x5bc73ab51e2ec91e,
	"shards3 GET /v1/embed?ids=5":                  0xe4375bd5e748cafd,
	"shards3 POST /embed ids":                      0x77158b3814b3bf52,
	"shards3 GET /predict?ids=0,7,42,299":          0xdc41eea111baf7ec,
	"shards3 POST /predict ids":                    0xcc8fcf428162645b,
	"shards3 GET /topk?id=7&k=10&mode=exact":       0xb2493bfadf086f47,
	"shards3 GET /topk?id=7&k=10&mode=exact #2":    0xb2493bfadf086f47,
	"shards3 GET /topk?id=42&k=8&mode=ann&ef=32":   0xa3b79b48c40505b3,
	"shards3 GET /topk?id=0&k=299&mode=ann":        0x419cc8efc6c42bdc,
	"shards3 GET /topk?id=5":                       0x245a6bbe6dfc462a,
	"shards3 wire GET /embed?ids=9,200":            0xc4edd8316f4345b8,
	"shards3 GET /embed?ids=300":                   0xe8a84a4ef9eb0f3d,
	"shards3 GET /embed?ids=+3":                    0x9dd378b8b867906a,
	"shards3 GET /topk?id=7&k=0":                   0x5a2272b7ca223663,
	"shards3 GET /topk?id=7&k=3&mode=fuzzy":        0x65f47af3128ea8e4,
	"shards3 GET /topk?id=7&k=3&mode=exact&ef=9":   0x97fe435ba2a8b0c1,
	"shards3 POST /topk?id=0&k=3 method":           0x7e73858677b08746,
	"shards3 PUT /embed":                           0x5825039d529bb2a4,
	"shards3 wire GET /predict?ids=300":            0x85b9f862887e9abc,
	"shards3 expired GET /embed":                   0x44ee0e866a37981a,
	"shards3 canceled GET /predict":                0x91297502ddb36fe4,
	"shards3 GET /nope":                            0xf95ba22885484b47,
	"shards3 GET //embed?ids=0":                    0x30ae87a8aed5337c,
	"shards3 GET /a/../embed?ids=0":                0x3b95a01e191c78c,
	"shards3 GET /shards//1/stop":                  0x1cdccae4659367f2,
	"shards3 GET /shards":                          0x4544bf081dbd1b18,
	"shards3 POST /shards/1/stop stop":             0x77c3d68f161517c0,
	"shards3 GET /embed?ids=0,1,2,3,4,5":           0x8bdd087ce3477985,
	"shards3 GET /topk?id=7&k=4":                   0x393b2654f99180dc,
	"shards3 GET /predict?ids=1":                   0xebd4537c69d983c1,
	"shards3 GET /topk?id=1&k=4":                   0xebd4537c69d983c1,
	"shards3 GET /predict?ids=2":                   0x4bcfbe7df67a8d0d,
	"shards3 GET /topk?id=2&k=4":                   0x4bcfbe7df67a8d0d,
	"shards3 GET /predict?ids=3":                   0x18ab76bf8a29756f,
	"shards3 GET /topk?id=3&k=4":                   0xac4b05a224299abd,
	"shards3 GET /predict?ids=4":                   0x7fd18d0d626bedda,
	"shards3 GET /topk?id=4&k=4":                   0xf3971e8aa939bf66,
	"shards3 GET /healthz #2":                      0xcc9dff0fb7feeb4a,
	"shards3 POST /shards/1/start start":           0x69425e262b3ba0aa,
	"shards3 GET /topk?id=3&k=4 #2":                0xfc66ab3c6f62fd05,
	"shards3 POST /shards/9/stop range":            0xf505ade7162b3fca,
	"shards3 POST /reload ok":                      0x9665037323eefe43,
	"shards3 POST /reload missing":                 0xe498c596fbec5ed8,
	"shards3 POST /reload bad-json":                0x8a047163aaf3c8d1,
	"shards3 GET /reload":                          0x20541cad1a12c21b,
	"shards3 GET /predict?ids=1,2":                 0xe81937816bbdd7b,
	"shards3 GET /healthz #3":                      0x9e53c1b5c27bb055,
	"shards3 metrics series":                       0xdeb2b30dbc130c5d,
	"shards3 GET /embed?ids=0 #2":                  0x647b712185ee7b5,
	"shards3 GET /predict?ids=0":                   0x647b712185ee7b5,
	"shards3 GET /embed?ids=nope":                  0x9145eab201bb676,
	"shards3 GET /topk?id=0&k=3 #2":                0x9145eab201bb676,
	"shards3 GET /healthz #4":                      0xcac68d599980c9d2,
	"shards3 GET /embed?ids=0 #3":                  0xc5da42057ff3c747,
	"shards3 GET /predict?ids=0 #2":                0x2525d560ef49ff64,
	"registry GET /models":                         0x80f420f280f51f7,
	"registry GET /models/plain":                   0x5f1c8fe718a0692b,
	"registry GET /models/fleet/healthz":           0x12ebd767c3799deb,
	"registry GET /models/plain/shards":            0xe3e3cf1eec7d1a01,
	"registry GET /models/fleet/shards":            0x4544bf081dbd1b18,
	"registry GET /models/nope/embed?ids=0":        0x444fc39f2255b9a,
	"registry GET /models/plain/nope":              0xbb26f704a76756df,
	"registry GET /v1/models/fleet/topk?id=3&k=2":  0x6b4e4db42a6991a1,
	"registry metrics series":                      0x5d7659dbc1e9c57d,
}

// pinTarget is one deployment under the pin, reduced to what both
// commits offer under the same names.
type pinTarget struct {
	h     http.Handler
	load  func(string) (uint64, error)
	close func()
	gate  *admitGate
}

// pinDeployments builds the two deployments the pin walks; it is the
// only place the constructors appear, so the walk itself is untouched
// by how many types sit behind them.
var pinDeployments = []struct {
	name string
	make func(tb testing.TB, opts Options) pinTarget
}{
	{"unsharded", func(tb testing.TB, opts Options) pinTarget {
		s := NewServer(testDataset(tb, false), opts)
		return pinTarget{h: s, load: s.Load, close: s.Close, gate: s.gate}
	}},
	{"shards3", func(tb testing.TB, opts Options) pinTarget {
		s, err := NewRouter(testDataset(tb, false), opts, 3, 42)
		if err != nil {
			tb.Fatal(err)
		}
		return pinTarget{h: s, load: s.Load, close: s.Close, gate: s.gate}
	}},
}

// pinRecorder issues requests against one handler and checks each
// answer against servingPins.
type pinRecorder struct {
	t      *testing.T
	prefix string
	tmp    string
	seen   map[string]int // a repeated step is pinned as "step #2", "#3", …
}

func (p pinRecorder) check(step string, code int, body string) {
	p.t.Helper()
	name := p.prefix + " " + step
	if p.seen[name]++; p.seen[name] > 1 {
		name = fmt.Sprintf("%s #%d", name, p.seen[name])
	}
	body = strings.ReplaceAll(body, p.tmp, "$TMP")
	got := crc64.Checksum([]byte(fmt.Sprintf("%d\n%s", code, body)), crc64.MakeTable(crc64.ECMA))
	if want, ok := servingPins[name]; !ok {
		p.t.Errorf("unpinned: %q: %#x,", name, got)
	} else if got != want {
		p.t.Errorf("%s: crc %#x, pinned %#x\n%d %.2000s", name, got, want, code, body)
	}
}

func (p pinRecorder) do(h http.Handler, step string, req *http.Request) {
	p.t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	p.check(step, rec.Code, rec.Body.String())
}

func (p pinRecorder) get(h http.Handler, path string) {
	p.t.Helper()
	p.do(h, "GET "+path, httptest.NewRequest("GET", path, nil))
}

func (p pinRecorder) post(h http.Handler, step, path, body string) {
	p.t.Helper()
	p.do(h, "POST "+path+" "+step, httptest.NewRequest("POST", path, strings.NewReader(body)))
}

// metricSeries reduces a Prometheus text scrape to its sorted series
// set: names and labels without values or comments.
func metricSeries(scrape string) string {
	var series []string
	for _, line := range strings.Split(scrape, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series = append(series, line[:strings.LastIndexByte(line, ' ')])
	}
	sort.Strings(series)
	return strings.Join(series, "\n")
}

func TestServingPinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("serving bits are pinned on amd64 only")
	}
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)

	for _, d := range pinDeployments {
		p := pinRecorder{t: t, prefix: d.name, tmp: dir, seen: map[string]int{}}
		tg := d.make(t, Options{Workers: 2, ANNEf: 24})

		// Error rows reachable before a model is loaded.
		p.get(tg.h, "/embed?ids=0")
		p.get(tg.h, "/topk?id=0&k=3")
		p.get(tg.h, "/healthz")
		if _, err := tg.load(ckptA); err != nil {
			t.Fatal(err)
		}

		// The fixed query list, strictly sequential so every batch
		// carries one query and the health counters are deterministic.
		p.get(tg.h, "/embed?ids=0,7,42,299")
		p.get(tg.h, "/v1/embed?ids=5")
		p.post(tg.h, "ids", "/embed", `{"ids":[3,1,250,77]}`)
		p.get(tg.h, "/predict?ids=0,7,42,299")
		p.post(tg.h, "ids", "/predict", `{"ids":[123,124,125]}`)
		p.get(tg.h, "/topk?id=7&k=10&mode=exact")
		p.get(tg.h, "/topk?id=7&k=10&mode=exact") // the memo must hand back the same bytes
		p.get(tg.h, "/topk?id=42&k=8&mode=ann&ef=32")
		p.get(tg.h, "/topk?id=0&k=299&mode=ann") // beam covers the table: exact fallback
		p.get(tg.h, "/topk?id=5")                // k unset
		wireReq := httptest.NewRequest("GET", "/embed?ids=9,200", nil)
		wireReq.Header.Set("Accept", wire.ContentType)
		p.do(tg.h, "wire GET /embed?ids=9,200", wireReq)

		// Error rows on a loaded model: the 400 default, 405, and the
		// two context rows (a request context that has already ended).
		p.get(tg.h, "/embed?ids=300")
		p.get(tg.h, "/embed?ids=+3")
		p.get(tg.h, "/topk?id=7&k=0")
		p.get(tg.h, "/topk?id=7&k=3&mode=fuzzy")
		p.get(tg.h, "/topk?id=7&k=3&mode=exact&ef=9")
		p.post(tg.h, "method", "/topk?id=0&k=3", "")
		p.do(tg.h, "PUT /embed", httptest.NewRequest("PUT", "/embed?ids=0", nil))
		wireErr := httptest.NewRequest("GET", "/predict?ids=300", nil)
		wireErr.Header.Set("Accept", wire.ContentType)
		p.do(tg.h, "wire GET /predict?ids=300", wireErr)
		expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
		p.do(tg.h, "expired GET /embed", httptest.NewRequest("GET", "/embed?ids=0,7", nil).WithContext(expired))
		cancelExpired()
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		p.do(tg.h, "canceled GET /predict", httptest.NewRequest("GET", "/predict?ids=0,7", nil).WithContext(gone))
		p.get(tg.h, "/nope")
		// Unclean paths: ServeMux's 301 when unsharded, a JSON 404 on a
		// fleet (it used to be hand-routed).
		p.get(tg.h, "//embed?ids=0")
		p.get(tg.h, "/a/../embed?ids=0")
		p.get(tg.h, "/shards//1/stop")

		// Shard surface: 404s with today's bodies when unsharded, the
		// degraded-not-dead walk on the fleet.
		p.get(tg.h, "/shards")
		p.post(tg.h, "stop", "/shards/1/stop", "")
		p.get(tg.h, "/embed?ids=0,1,2,3,4,5")
		p.get(tg.h, "/topk?id=7&k=4")
		for id := 1; id <= 4; id++ { // some owned by live shards: answered, top-K flagged degraded
			p.get(tg.h, fmt.Sprintf("/predict?ids=%d", id))
			p.get(tg.h, fmt.Sprintf("/topk?id=%d&k=4", id))
		}
		p.get(tg.h, "/healthz")
		p.post(tg.h, "start", "/shards/1/start", "")
		p.get(tg.h, "/topk?id=3&k=4") // a degraded answer must not have been memoized
		p.post(tg.h, "range", "/shards/9/stop", "")

		// Reload: success advances the version, failure leaves it.
		p.post(tg.h, "ok", "/reload", fmt.Sprintf(`{"path": %q}`, ckptB))
		p.post(tg.h, "missing", "/reload", fmt.Sprintf(`{"path": %q}`, dir+"/nope.ckpt"))
		p.post(tg.h, "bad-json", "/reload", `{"path": 3`)
		p.get(tg.h, "/reload")
		p.get(tg.h, "/predict?ids=1,2")
		p.get(tg.h, "/healthz")

		rec := httptest.NewRecorder()
		tg.h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		p.check("metrics series", rec.Code, metricSeries(rec.Body.String()))

		// Closed: the point-query endpoints fail 503. (/topk is left out:
		// at the recording commit a closed unsharded server still
		// answered it 200 — the drift lifecycle_test.go now pins shut.)
		tg.close()
		p.get(tg.h, "/embed?ids=0")
		p.get(tg.h, "/predict?ids=0")

		// Admission rows on fresh instances: a gate pinned at its
		// high-water mark, and a quota with one token of burst.
		shed := d.make(t, Options{Workers: 1, ShedQueueHW: 4})
		shed.gate.depth = func() int { return shed.gate.hw }
		p.get(shed.h, "/embed?ids=nope") // 429 precedes parsing
		p.get(shed.h, "/topk?id=0&k=3")
		shed.close()
		quota := d.make(t, Options{Workers: 1, QPSLimit: 0.001})
		p.get(quota.h, "/healthz") // control plane spends no token
		p.get(quota.h, "/embed?ids=0")
		p.get(quota.h, "/predict?ids=0")
		quota.close()
	}

	// The registry listing over both shapes.
	reg := NewRegistry()
	defer reg.Close()
	plain, err := reg.Add("plain", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := reg.AddSharded("fleet", ds, Options{Workers: 1, ANN: true}, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Load(ckptA); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Load(ckptB); err != nil {
		t.Fatal(err)
	}
	p := pinRecorder{t: t, prefix: "registry", tmp: dir, seen: map[string]int{}}
	p.get(reg, "/models")
	p.get(reg, "/models/plain")
	p.get(reg, "/models/fleet/healthz")
	p.get(reg, "/models/plain/shards")
	p.get(reg, "/models/fleet/shards")
	p.get(reg, "/models/nope/embed?ids=0")
	p.get(reg, "/models/plain/nope")
	p.get(reg, "/v1/models/fleet/topk?id=3&k=2")
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	p.check("metrics series", rec.Code, metricSeries(rec.Body.String()))
}
