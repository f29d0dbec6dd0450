package ann

import (
	"math"
	"sort"
	"testing"

	"gsgcn/internal/rng"
)

// refTopK mirrors TopK semantics with a plain sort.
func refTopK(items []Candidate, k int) []Candidate {
	s := append([]Candidate(nil), items...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].ID < s[j].ID
	})
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func TestTopKRandomStreams(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(400)
		k := 1 + r.Intn(20)
		items := make([]Candidate, n)
		for i := range items {
			// Coarse scores force plenty of ties to exercise the
			// id tiebreak.
			items[i] = Candidate{ID: int32(i), Score: float64(r.Intn(10)) / 10}
		}
		tk := NewTopK(k)
		for _, it := range items {
			tk.Offer(it.ID, it.Score)
		}
		got := tk.Sorted()
		want := refTopK(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		// Sorted is a view, not a drain: a second call reads the same.
		if again := tk.Sorted(); len(again) != len(want) {
			t.Fatalf("trial %d: second Sorted holds %d, want %d", trial, len(again), len(want))
		}
	}
}

func TestTopKBounds(t *testing.T) {
	tk := NewTopK(3)
	for i := 0; i < 100; i++ {
		tk.Offer(int32(i), float64(i))
	}
	got := tk.Sorted()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []int32{99, 98, 97} {
		if got[i].ID != want {
			t.Errorf("rank %d = %d, want %d", i, got[i].ID, want)
		}
	}
	// Degenerate capacities.
	zero := NewTopK(0)
	zero.Offer(1, 1)
	if len(zero.Sorted()) != 0 {
		t.Error("k=0 selector accepted an entry")
	}
	one := NewTopK(1)
	one.Offer(5, 0.5)
	one.Offer(6, 0.9)
	one.Offer(7, 0.1)
	if items := one.Sorted(); len(items) != 1 || items[0].ID != 6 {
		t.Errorf("k=1 selector = %+v, want [{6 0.9}]", items)
	}
}

// TestTopKCapacityExceedsStream covers k >= |V|: fewer offers than
// capacity must all be held, ranked, through partial fills.
func TestTopKCapacityExceedsStream(t *testing.T) {
	tk := NewTopK(50)
	for i := 0; i < 7; i++ {
		tk.Offer(int32(i), float64(i%3))
	}
	items := tk.Sorted()
	if len(items) != 7 {
		t.Fatalf("held %d of 7 offers", len(items))
	}
	want := refTopK(items, 7)
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("rank %d: %+v, want %+v", i, items[i], want[i])
		}
	}
	// Exactly-full boundary: k == stream length.
	exact := NewTopK(7)
	for i := 0; i < 7; i++ {
		exact.Offer(int32(i), float64(i))
	}
	if held := len(exact.Sorted()); held != 7 {
		t.Fatalf("k==n selector held %d", held)
	}
	// One more offer forces the first eviction at the boundary.
	exact.Offer(99, 100)
	if items := exact.Sorted(); len(items) != 7 || items[0].ID != 99 {
		t.Fatalf("post-eviction items: %+v", items)
	}
}

// TestTopKAllEqualScores forces every comparison through the id
// tiebreak: with one shared score the selector must hold the k lowest
// ids, in ascending order, regardless of offer order.
func TestTopKAllEqualScores(t *testing.T) {
	offer := []int32{9, 3, 11, 0, 7, 5, 1, 8, 2, 10, 6, 4}
	tk := NewTopK(5)
	for _, id := range offer {
		tk.Offer(id, 0.25)
	}
	items := tk.Sorted()
	if len(items) != 5 {
		t.Fatalf("len = %d", len(items))
	}
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if items[i].ID != want || items[i].Score != 0.25 {
			t.Errorf("rank %d = %+v, want id %d", i, items[i], want)
		}
	}
}

// TestTopKRejectsNaN pins the documented NaN contract: offers with NaN
// scores are dropped — they never enter the selector, never evict a
// real entry, and never wedge the ordering (Before is not a total
// order in NaN's presence, so admission would corrupt ranking).
func TestTopKRejectsNaN(t *testing.T) {
	nan := math.NaN()
	tk := NewTopK(3)
	tk.Offer(1, nan) // NaN into an empty selector
	if items := tk.Sorted(); len(items) != 0 {
		t.Fatalf("empty selector accepted NaN: %+v", items)
	}
	tk.Offer(2, 0.5)
	tk.Offer(3, nan) // NaN into a partially-filled selector
	tk.Offer(4, 0.9)
	tk.Offer(5, 0.1)
	tk.Offer(6, nan) // NaN into a full selector
	items := tk.Sorted()
	if len(items) != 3 {
		t.Fatalf("len = %d, want 3", len(items))
	}
	for i, want := range []Candidate{{ID: 4, Score: 0.9}, {ID: 2, Score: 0.5}, {ID: 5, Score: 0.1}} {
		if items[i] != want {
			t.Fatalf("rank %d = %+v, want %+v", i, items[i], want)
		}
	}
	// Real offers after NaN rejections still rank correctly.
	tk.Offer(7, 0.7)
	if items := tk.Sorted(); items[1].ID != 7 {
		t.Fatalf("post-NaN offer misplaced: %+v", items)
	}
}

// TestTopKAscendingDescending exercises root eviction from both
// directions: strictly improving offers evict on every insert,
// strictly worsening offers reject on every insert.
func TestTopKAscendingDescending(t *testing.T) {
	up := NewTopK(5)
	for i := 0; i < 50; i++ {
		up.Offer(int32(i), float64(i))
	}
	if items := up.Sorted(); items[0].ID != 49 || items[4].ID != 45 {
		t.Errorf("ascending stream: %+v", items)
	}
	down := NewTopK(5)
	for i := 0; i < 50; i++ {
		down.Offer(int32(i), float64(-i))
	}
	if items := down.Sorted(); items[0].ID != 0 || items[4].ID != 4 {
		t.Errorf("descending stream: %+v", items)
	}
}
