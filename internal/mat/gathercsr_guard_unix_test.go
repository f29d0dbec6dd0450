//go:build unix

package mat

import (
	"fmt"
	"testing"
	"unsafe"
)

// guardedInts returns n int32s, int64s or ints ending on the last byte
// before an inaccessible page, as guardedFloats does for float64s.
func guardedInt32s(t *testing.T, n int) []int32 {
	b := guardedBytes(t, 4*n)
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func guardedInt64s(t *testing.T, n int) []int64 {
	b := guardedBytes(t, 8*n)
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func guardedIntList(t *testing.T, n int) []int {
	b := guardedBytes(t, 8*n)
	return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// TestGatherCSRStaysInsideItsSlices: the block kernel with dst, src,
// rowPtr, col, the weights and the vertex list each ending on the last
// bytes of an allocation, and the last vertex — the one whose row of
// dst, adjacency list and entry of rowPtr are the last ones — reading
// the last row of src: at every width up to past the kernel's limit,
// at every level, weighted and not, over a range and a list. Every
// element is checked, so a masked lane that leaked a read or a write
// shows as a fault or a wrong sum.
func TestGatherCSRStaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, testGatherCSRStaysInsideItsSlices)
}

func testGatherCSRStaysInsideItsSlices(t *testing.T) {
	const rows = 6
	// Vertex v's neighbours: the last vertex, then v-1 down to 0, so the
	// last vertex has rows-1 of them and reads src's last row first.
	rowPtr := guardedInt64s(t, rows+1)
	var flat []int32
	for v := 0; v < rows; v++ {
		rowPtr[v] = int64(len(flat))
		if v > 0 {
			flat = append(flat, rows-1)
			for u := v - 2; u >= 0; u-- {
				flat = append(flat, int32(u))
			}
		}
	}
	rowPtr[rows] = int64(len(flat))
	col := guardedInt32s(t, len(flat))
	copy(col, flat)
	w := guardedFloats(t, rows)
	verts := guardedIntList(t, 3)
	copy(verts, []int{0, 2, rows - 1})
	for i := range w {
		w[i] = 2
	}
	for n := 1; n <= GatherCSRMax+4; n++ {
		src, dst := guardedFloats(t, rows*n), guardedFloats(t, rows*n)
		for u := 0; u < rows; u++ {
			for i := 0; i < n; i++ {
				src[u*n+i] = float64(u + 1)
			}
		}
		for _, weight := range [][]float64{nil, w} {
			for _, list := range [][]int{nil, verts} {
				hi := rows
				if list != nil {
					hi = len(list)
				}
				GatherCSR(dst, 0, src, n, rowPtr, col, list, 0, hi, weight, true)
				for v := 0; v < rows; v++ {
					if list != nil && v != 0 && v != 2 && v != rows-1 {
						continue
					}
					want := 0.0
					if deg := rowPtr[v+1] - rowPtr[v]; deg > 0 {
						sum := 0.0
						for _, u := range col[rowPtr[v]:rowPtr[v+1]] {
							sum += float64(u + 1)
						}
						if weight != nil {
							sum *= 2
						}
						want = sum / float64(deg)
					}
					for i := 0; i < n; i++ {
						if got := dst[v*n+i]; got != want {
							t.Fatalf("%s: vertex %d element %d = %v, want %v",
								fmt.Sprintf("n=%d weighted=%t list=%t", n, weight != nil, list != nil), v, i, got, want)
						}
					}
				}
			}
		}
	}
}
