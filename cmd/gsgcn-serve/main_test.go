package main

import "testing"

// TestParseFleetConfig pins the -config schema validation and the
// global-flag inheritance: settings absent from a model's JSON object
// take the command-line defaults, present ones override them.
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
		"retired-block":   `{"models": [{"name": "a", "checkpoint": "a.ckpt", "block": 64}]}`,
		"retired-mmap":    `{"models": [{"name": "a", "checkpoint": "a.ckpt", "mmap": true}]}`,
		"not-even-object": `[1, 2]`,
	} {
		if _, err := parseFleetConfig([]byte(bad), defaults); err == nil {
			t.Errorf("%s: parseFleetConfig accepted %s", name, bad)
		}
	}
}
