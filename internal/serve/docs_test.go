package serve

import (
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gsgcn/internal/obs"
)

// TestAPIDocCoversRegisteredRoutes enforces the documentation
// contract both ways: every route the serving process registers must
// appear (in backticks) in docs/API.md, and every route named in an
// API.md section heading must still be registered — so the reference
// can neither lag behind the code nor describe endpoints that no
// longer exist.
func TestAPIDocCoversRegisteredRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	doc := string(raw)

	registered := make(map[string]bool)
	for _, r := range RegisteredRoutes() {
		registered[r.Pattern] = true
		if !strings.Contains(doc, "`"+r.Pattern+"`") {
			t.Errorf("registered route %s %s is not documented in docs/API.md", r.Methods, r.Pattern)
		}
		// The accepted methods must be stated somewhere in the doc for
		// this route's section; a plain mention suffices (e.g. "GET,
		// POST." or a "GET only" note).
		for _, m := range strings.Split(r.Methods, ", ") {
			if !strings.Contains(doc, m) {
				t.Errorf("method %s of route %s never appears in docs/API.md", m, r.Pattern)
			}
		}
	}

	// Reverse direction: routes named in section headings must exist.
	headingRoute := regexp.MustCompile("`(/[^`]*)`")
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		for _, m := range headingRoute.FindAllStringSubmatch(line, -1) {
			if !registered[m[1]] {
				t.Errorf("docs/API.md documents %q, which is not a registered route", m[1])
			}
		}
	}
}

// TestRegisteredRoutesComplete cross-checks the route table against
// the live muxes: every per-model endpoint in the table must be
// routable on a Server, and the registry must answer (or cleanly
// reject) both spellings — so the table RegisteredRoutes derives from
// cannot drift from what is actually served.
func TestRegisteredRoutesComplete(t *testing.T) {
	ds := testDataset(t, false)
	srv := NewServer(ds, Options{Workers: 1})
	defer srv.Close()
	for _, e := range perModelEndpoints {
		if srv.handlerFor(e.Pattern) == nil {
			t.Errorf("endpoint %s has no handler", e.Pattern)
		}
		// The mux must route the pattern to our handler, not a 404:
		// http.ServeMux.Handler reports the registered pattern.
		req, err := http.NewRequest("GET", e.Pattern, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := srv.mux.Handler(req); got != e.Pattern {
			t.Errorf("mux routes %s to pattern %q", e.Pattern, got)
		}
	}
	// /models + the bare /models/{name} alias + both spellings of
	// every per-model endpoint and every shard operation — then the
	// whole surface again under the /v1 prefix.
	want := 2 * (2 + 2*(len(perModelEndpoints)+len(shardEndpoints)))
	if got := len(RegisteredRoutes()); got != want {
		t.Errorf("RegisteredRoutes lists %d routes, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, r := range RegisteredRoutes() {
		if seen[r.Pattern] {
			t.Errorf("duplicate route pattern %s", r.Pattern)
		}
		seen[r.Pattern] = true
		if r.Methods == "" {
			t.Errorf("route %s declares no methods", r.Pattern)
		}
	}
	// Every route must come in exactly the two spellings: /v1 canonical
	// and the unprefixed legacy alias.
	for _, r := range RegisteredRoutes() {
		if v1, ok := strings.CutPrefix(r.Pattern, "/v1/"); ok {
			if !seen["/"+v1] {
				t.Errorf("v1 route %s has no legacy alias", r.Pattern)
			}
		} else if !seen["/v1"+r.Pattern] {
			t.Errorf("route %s has no /v1 spelling", r.Pattern)
		}
	}
}

// TestAPIDocErrorModelIsTheTable holds docs/API.md's error model to
// errorTable both ways: its status table lists exactly the statuses
// the rows produce, in table order, then the 400 every other error
// gets, and its reason vocabulary is exactly the rows' non-empty
// reasons, in table order.
func TestAPIDocErrorModelIsTheTable(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Error model\n")
	if !ok {
		t.Fatal(`docs/API.md has no "## Error model" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	var docStatuses, docReasons, wantStatuses, wantReasons []string
	for _, m := range regexp.MustCompile(`(?m)^\| (\d{3}) +\|`).FindAllStringSubmatch(section, -1) {
		docStatuses = append(docStatuses, m[1])
	}
	for _, m := range regexp.MustCompile("`\"([a-z_]+)\"`").FindAllStringSubmatch(section, -1) {
		docReasons = append(docReasons, m[1])
	}
	seen := map[string]bool{}
	add := func(list *[]string, v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			*list = append(*list, v)
		}
	}
	for _, row := range errorTable {
		add(&wantStatuses, strconv.Itoa(row.status))
		add(&wantReasons, row.reason)
	}
	add(&wantStatuses, strconv.Itoa(http.StatusBadRequest))
	if !reflect.DeepEqual(docStatuses, wantStatuses) {
		t.Errorf("docs/API.md's error model lists statuses %v; errorTable produces %v", docStatuses, wantStatuses)
	}
	if !reflect.DeepEqual(docReasons, wantReasons) {
		t.Errorf("docs/API.md's error model lists reasons %v; errorTable's rows carry %v", docReasons, wantReasons)
	}
}

// TestAPIDocCoversMetricFamilies holds docs/API.md's table of exported
// families to what a serving process registers, both ways: every
// family a scrape of a registry serving a sharded model and an
// unsharded one, with the process's runtime series (as gsgcn-serve
// registers them), renders is named in the doc, and every family the
// table names is rendered. Every family is registered eagerly, so no
// traffic is needed.
func TestAPIDocCoversMetricFamilies(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	ds := testDataset(t, false)
	reg := NewRegistry()
	defer reg.Close()
	obs.RegisterRuntime(reg.Metrics())
	if _, err := reg.Add("prod", ds, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddSharded("fleet", ds, Options{Workers: 1}, 2, 9); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	rendered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(text.String(), -1) {
		rendered[m[1]] = true
		if !strings.Contains(doc, "`"+m[1]+"`") {
			t.Errorf("metric family %s is not documented in docs/API.md", m[1])
		}
	}
	if len(rendered) == 0 {
		t.Fatal("the scrape rendered no family")
	}
	rows := regexp.MustCompile("(?m)^\\| `(gsgcn_[a-z0-9_]+)`(?: / `(gsgcn_[a-z0-9_]+)`)? \\|").FindAllStringSubmatch(doc, -1)
	if len(rows) == 0 {
		t.Fatal("docs/API.md has no table row naming a metric family")
	}
	for _, m := range rows {
		for _, family := range m[1:] {
			if family != "" && !rendered[family] {
				t.Errorf("docs/API.md documents metric family %s, which no registry renders", family)
			}
		}
	}
}
