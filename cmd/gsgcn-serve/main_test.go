package main

import (
	"strings"
	"testing"
)

// TestParseModelFlag pins the -model value grammar: name=checkpoint
// first, then key=value settings overriding the global-flag defaults.
func TestParseModelFlag(t *testing.T) {
	defaults := modelSpec{ANN: false, ANNM: 8, Workers: 4}

	spec, err := parseModelFlag("prod=prod.ckpt", defaults)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "prod" || spec.Checkpoint != "prod.ckpt" {
		t.Errorf("minimal spec = %+v", spec)
	}
	if spec.ANNM != 8 || spec.Workers != 4 {
		t.Errorf("global defaults not inherited: %+v", spec)
	}

	spec, err = parseModelFlag(
		"canary=c.ckpt,data=g.gsg,artifact=c.art,ann=true,ann-m=32,ann-ef=128,workers=2,block=64",
		defaults)
	if err != nil {
		t.Fatal(err)
	}
	want := modelSpec{
		Name: "canary", Checkpoint: "c.ckpt", Data: "g.gsg", Artifact: "c.art",
		ANN: true, ANNM: 32, ANNEf: 128, Workers: 2, Block: 64,
	}
	if spec != want {
		t.Errorf("full spec = %+v, want %+v", spec, want)
	}

	// Bare "ann" reads as ann=true.
	spec, err = parseModelFlag("a=a.ckpt,ann", defaults)
	if err != nil || !spec.ANN {
		t.Errorf("bare ann: spec=%+v err=%v", spec, err)
	}

	// Sub-millisecond deadlines must survive the ms conversion, not
	// silently truncate to "no deadline".
	spec, err = parseModelFlag("a=a.ckpt,deadline=500us,shed-queue=64,qps=2.5", defaults)
	if err != nil {
		t.Fatal(err)
	}
	if spec.DeadlineMS != 0.5 || spec.ShedQueue != 64 || spec.QPS != 2.5 {
		t.Errorf("overload spec: deadline=%vms shed=%d qps=%v, want 0.5ms 64 2.5",
			spec.DeadlineMS, spec.ShedQueue, spec.QPS)
	}

	for _, bad := range []string{
		"",                    // nothing
		"justaname",           // no checkpoint
		"=ckpt",               // empty name
		"name=",               // empty checkpoint
		"a=a.ckpt,nope=1",     // unknown key
		"a=a.ckpt,ann=maybe",  // bad bool
		"a=a.ckpt,ann-m=lots", // bad int
		"a=a.ckpt,garbage",    // bare token that is not ann
		"a=a.ckpt,batch=16",   // retired key: there is no micro-batch size
	} {
		if _, err := parseModelFlag(bad, defaults); err == nil {
			t.Errorf("parseModelFlag(%q) accepted", bad)
		}
	}
}

// TestParseFleetConfig pins the -config schema validation and the
// global-flag inheritance: settings absent from a model's JSON object
// take the command-line defaults, present ones override them — the
// same semantics as -model.
func TestParseFleetConfig(t *testing.T) {
	defaults := modelSpec{ANN: true, ANNM: 8, Workers: 4}
	fc, err := parseFleetConfig([]byte(`{
	  "default": "b",
	  "models": [
	    {"name": "a", "checkpoint": "a.ckpt", "data": "g.gsg", "ann_ef": 32},
	    {"name": "b", "checkpoint": "b.ckpt", "ann": false}
	  ]
	}`), defaults)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Default != "b" || len(fc.Models) != 2 {
		t.Fatalf("config = %+v", fc)
	}
	a, b := fc.Models[0], fc.Models[1]
	if a.ANNEf != 32 || !a.ANN || a.ANNM != 8 || a.Workers != 4 {
		t.Errorf("model a did not inherit global defaults: %+v", a)
	}
	if b.ANN || b.Checkpoint != "b.ckpt" {
		t.Errorf("model b could not override an inherited default: %+v", b)
	}

	for name, bad := range map[string]string{
		"malformed":       `{"models": [`,
		"no-models":       `{"default": "x"}`,
		"empty-models":    `{"models": []}`,
		"unknown-field":   `{"models": [{"name": "a", "checkpoint": "a.ckpt", "annn": true}]}`,
		"missing-name":    `{"models": [{"checkpoint": "a.ckpt"}]}`,
		"missing-ckpt":    `{"models": [{"name": "a"}]}`,
		"top-level-typo":  `{"defualt": "a", "models": [{"name": "a", "checkpoint": "a.ckpt"}]}`,
		"retired-batch":   `{"models": [{"name": "a", "checkpoint": "a.ckpt", "batch": 16}]}`,
		"not-even-object": `[1, 2]`,
	} {
		if _, err := parseFleetConfig([]byte(bad), defaults); err == nil {
			t.Errorf("%s: parseFleetConfig accepted %s", name, bad)
		}
	}
}

// TestModelFlagsCollect pins the repeatable-flag plumbing.
func TestModelFlagsCollect(t *testing.T) {
	var m modelFlags
	if err := m.Set("a=a.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b=b.ckpt,ann=true"); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || !strings.Contains(m.String(), "a=a.ckpt") {
		t.Errorf("modelFlags = %v (%q)", m, m.String())
	}
}
