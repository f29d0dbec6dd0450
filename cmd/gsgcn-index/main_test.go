package main

import (
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gsgcn"
)

// artifactPins maps each artifact TestRunArtifactsGolden writes to the
// CRC-64/ECMA of its bytes before the 8-byte trailer (the trailer is
// that CRC, so a whole-file CRC is the same constant for every file),
// on linux/amd64 with the same checkpoint and flags. First recorded at
// 4b59a64; re-recorded by the change after 83f53fc, which made ppi's
// first layer (50 features -> hidden 8) propagate its 8-wide output,
// A·(H·W_neigh), instead of its 50-wide input, and so moved the
// embedding bits; the artifact format did not change (forcing the old
// order restores the 4b59a64 constants). The four f32 constants were
// recorded at ec48a73, before gsgcn-index built its tables by
// installing the model on a serving engine. The format is frozen: a
// build that moves a byte of any of them fails here. As in the other
// pins, embedding bits are promised on amd64 only.
var artifactPins = map[string]uint64{
	"i8pq shard 0 of 1": 0x3458d3050cb5ee49,
	"i8pq shard 0 of 3": 0x7325de7f3a7ce5b3,
	"i8pq shard 1 of 3": 0xf0ac06f31e6d227b,
	"i8pq shard 2 of 3": 0xc33f91416c5a3d5e,
	"f64 shard 0 of 1":  0xb02b1964cf2f72d0,
	"f64 shard 0 of 3":  0x66936d42e5bf46c4,
	"f64 shard 1 of 3":  0x860603e3c11bf8f4,
	"f64 shard 2 of 3":  0x63fcd3ff80ba2d3c,
	"f32 shard 0 of 1":  0xdbc66b3c4c9361bf,
	"f32 shard 0 of 3":  0xd8e69b5d6b47c136,
	"f32 shard 1 of 3":  0x7948d2d8382d5c8f,
	"f32 shard 2 of 3":  0x05ce3a78f54936d6,
}

// TestRunArtifactsGolden indexes a seeded, untrained model over a tiny
// preset at -dtype i8pq, f64 and f32, whole and as three shards, and holds
// every artifact written to its pin; each is named on stdout and has
// its manifest beside it.
func TestRunArtifactsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("artifact bits are pinned on amd64 only")
	}
	dir := t.TempDir()
	ds, err := gsgcn.LoadPreset("ppi", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := gsgcn.NewModel(ds, gsgcn.Config{Layers: 2, Hidden: 8, Workers: 1, Seed: 17})
	m.ModelVersion = 3
	ckpt := filepath.Join(dir, "m.ckpt")
	if err := m.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	crcTable := crc64.MakeTable(crc64.ECMA)
	for _, dtype := range []string{"i8pq", "f64", "f32"} {
		for _, shards := range []int{1, 3} {
			out := filepath.Join(dir, fmt.Sprintf("%s-%d.art", dtype, shards))
			var stdout, stderr strings.Builder
			err := run([]string{"-load", ckpt, "-dataset", "ppi", "-scale", "0.01",
				"-dtype", dtype, "-shards", fmt.Sprint(shards), "-shard-seed", "7", "-out", out}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("%s x%d: %v", dtype, shards, err)
			}
			if stderr.Len() != 0 {
				t.Errorf("%s x%d: a clean run wrote to stderr: %s", dtype, shards, stderr.String())
			}
			for i := 0; i < shards; i++ {
				path := out
				if shards > 1 {
					path = gsgcn.ShardArtifactPath(out, i, shards)
				}
				key := fmt.Sprintf("%s shard %d of %d", dtype, i, shards)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := crc64.Checksum(b[:len(b)-8], crcTable); got != artifactPins[key] {
					t.Errorf("%s: CRC-64 %#016x, pinned %#016x", key, got, artifactPins[key])
				}
				if !strings.Contains(stdout.String(), "wrote "+path+" (") {
					t.Errorf("%s: stdout does not name %s:\n%s", key, path, stdout.String())
				}
				if _, err := os.Stat(path + ".json"); err != nil {
					t.Errorf("%s: no manifest: %v", key, err)
				}
			}
		}
	}
}

// TestRunRejectsBadInput: an undefined flag, a missing -load and an
// unknown dtype all come back as errors (main's exit 1), the first with
// the usage text on stderr, and none writes an artifact.
func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("undefined flag: err = %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of gsgcn-index") || stdout.Len() != 0 {
		t.Errorf("undefined flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	out := filepath.Join(t.TempDir(), "x.art")
	if err := run([]string{"-out", out}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-load is required") {
		t.Errorf("missing -load: err = %v", err)
	}
	if err := run([]string{"-load", "m.ckpt", "-dtype", "f16", "-out", out}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "f16") {
		t.Errorf("unknown dtype: err = %v", err)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected run left an artifact")
	}
}
