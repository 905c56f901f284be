package rdd

import (
	"math"
	"testing"
	"unsafe"
)

// overlaps reports whether two float64 slices share any backing memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(len(b))*8 && b0 < a0+uintptr(len(a))*8
}

// Rewind gives back exactly what was drawn after the mark: the next draw
// reuses that memory, and memory drawn before the mark is never handed out
// again — also when the slab grew (and so changed backing) in between, where
// restoring the marked offset into the new backing would be the bug.
func TestArenaMarkRewind(t *testing.T) {
	var a Arena
	fill := func(s []float64, v float64) []float64 {
		for i := range s {
			s[i] = v
		}
		return s
	}
	check := func(name string, s []float64, v float64) {
		t.Helper()
		for i, x := range s {
			if math.Float64bits(x) != math.Float64bits(v) {
				t.Fatalf("%s[%d] = %v, want %v: live memory was handed out again", name, i, x, v)
			}
		}
	}

	// Within one backing: the region after the mark is reused in place.
	keep := fill(a.Float64s(40), 1)
	m := a.Mark()
	first := a.Float64sDirty(20)
	a.Rewind(m)
	again := a.Float64sDirty(20)
	if unsafe.SliceData(first) != unsafe.SliceData(again) {
		t.Error("a draw after Rewind did not reuse the rewound region")
	}
	fill(again, 2)
	check("keep", keep, 1)

	// Across a grow: 40 live + 20 rewound fit the first 64-element backing,
	// 200 more do not. Everything drawn from here on must stay clear of keep
	// (in the abandoned backing) and of each other.
	a.Rewind(m)
	big := fill(a.Float64sDirty(200), 3)
	if overlaps(big, keep) {
		t.Fatal("the grown slab overlaps memory drawn before the mark")
	}
	a.Rewind(m)
	x := fill(a.Float64sDirty(100), 4)
	y := fill(a.Float64sDirty(100), 5)
	if overlaps(x, y) || overlaps(x, keep) || overlaps(y, keep) {
		t.Fatal("draws after a rewind across a grow overlap live memory")
	}
	check("keep", keep, 1)
	check("x", x, 4)

	// A second mark, taken in the grown backing, rewinds inside it.
	m2 := a.Mark()
	fill(a.Float64sDirty(30), 6)
	a.Rewind(m2)
	fill(a.Float64sDirty(30), 7)
	check("x", x, 4)
	check("y", y, 5)

	// trim sizes the next cycle's backing to the high-water live demand
	// (40 + 200), not to the sum of everything ever drawn (790).
	a.trim()
	if got := len(a.f64.buf); got < 240 || got >= 790 {
		t.Errorf("backing after trim holds %d elements, want the 240-element high-water mark (within geometric slack), not the 790 drawn in total", got)
	}

	// The other slabs rewind too.
	a.Reset()
	a.Int32s(8)
	a.Bools(8)
	a.Bytes(8)
	m3 := a.Mark()
	i1, b1, y1 := a.Int32s(4), a.Bools(4), a.Bytes(4)
	a.Rewind(m3)
	i2, b2, y2 := a.Int32s(4), a.Bools(4), a.Bytes(4)
	if &i1[0] != &i2[0] || &b1[0] != &b2[0] || &y1[0] != &y2[0] {
		t.Error("Rewind left the int32, bool or byte slab where it was")
	}
}
