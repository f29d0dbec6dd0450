package ann

import (
	"slices"
	"testing"
)

// indexEqual reports structural identity: same levels, same links in
// the same order, same entry — the strongest form of build
// determinism (bit-identical queries follow from it).
func indexEqual(a, b *Index) bool {
	if a.entry != b.entry || len(a.nodes) != len(b.nodes) {
		return false
	}
	for v := range a.nodes {
		if a.nodes[v] != b.nodes[v] {
			return false
		}
	}
	return slices.Equal(a.links, b.links)
}

// TestBuildDeterministicAcrossWorkers builds the same table at many
// worker counts: the wave decomposition is a constant, searches read
// only frozen state, and commits are serial in id order, so the link
// structure must be identical everywhere.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	emb, norms := randTable(900, 16, 12, 5)
	ref := Build(emb, norms, Params{M: 12}, 1)
	for _, workers := range []int{2, 3, 5, 8} {
		got := Build(emb, norms, Params{M: 12}, workers)
		if !indexEqual(ref, got) {
			t.Fatalf("index built with workers=%d differs from workers=1", workers)
		}
	}
}

// TestBuildDeterministicAcrossRebuilds rebuilds with identical inputs
// and asserts structural identity — the /reload reproducibility
// contract.
func TestBuildDeterministicAcrossRebuilds(t *testing.T) {
	emb, norms := randTable(700, 12, 8, 21)
	a := Build(emb, norms, Params{}, 4)
	b := Build(emb, norms, Params{}, 4)
	if !indexEqual(a, b) {
		t.Fatal("two builds over identical inputs produced different indexes")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ across rebuilds: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestQueriesBitIdenticalAcrossWorkers compares full result lists —
// ids and float scores — from indexes built at different worker
// counts. This is the end-to-end determinism contract the serving
// layer advertises for mode=ann.
func TestQueriesBitIdenticalAcrossWorkers(t *testing.T) {
	emb, norms := randTable(1100, 16, 10, 77)
	ref := Build(emb, norms, Params{}, 1)
	for _, workers := range []int{3, 7} {
		got := Build(emb, norms, Params{}, workers)
		for _, q := range []int32{0, 13, 550, 1099} {
			for _, ef := range []int{0, 16, 200} {
				a := ref.SearchVertex(q, 10, ef)
				b := got.SearchVertex(q, 10, ef)
				if len(a) != len(b) {
					t.Fatalf("workers=%d q=%d ef=%d: %d vs %d results", workers, q, ef, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("workers=%d q=%d ef=%d rank %d: %+v vs %+v",
							workers, q, ef, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestSeedChangesStructure guards against the seed being ignored: a
// different seed must reassign at least some layer heights.
func TestSeedChangesStructure(t *testing.T) {
	emb, norms := randTable(400, 8, 4, 3)
	a := Build(emb, norms, Params{Seed: 1}, 2)
	b := Build(emb, norms, Params{Seed: 2}, 2)
	same := true
	for v := range a.nodes {
		if a.nodes[v].level != b.nodes[v].level {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical level assignments")
	}
}
