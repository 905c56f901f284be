package sptensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"distenc/internal/mat"
)

// TestAtCellsMatchesAtBits holds the batched evaluator to Kruskal.At at every
// order 1–4, at ranks on both sides of the stack slab, and at cell counts on
// both sides of a tile, repeated cells included: every value Float64bits-equal,
// appended after what out held. AtEntries hands the same values over in
// storage order, chunk by chunk, so a storage-order sum of them is the At
// loop's sum bit for bit.
func TestAtCellsMatchesAtBits(t *testing.T) {
	allDims := []int{7, 5, 4, 3}
	for order := 1; order <= 4; order++ {
		for _, rank := range []int{1, 7, 16, 1024, 1025} {
			rng := rand.New(rand.NewPCG(uint64(order), uint64(rank)))
			k := randKruskal(rng, allDims[:order], rank)
			tile := max(1, cellTile/rank)
			for _, count := range []int{0, 1, tile - 1, tile, tile + 1, 2*cellTile + 3} {
				ts := randCells(rng, allDims[:order], count)
				name := fmt.Sprintf("order=%d/R=%d/count=%d", order, rank, count)
				got := k.AtCells(ts.Idx, []float64{-1})
				if len(got) != 1+count || got[0] != -1 {
					t.Fatalf("%s: %d values after the one out held, want %d appended", name, len(got), count)
				}
				var wantSum float64
				for e := 0; e < count; e++ {
					want := k.At(ts.Index(e))
					wantSum += want
					if math.Float64bits(got[1+e]) != math.Float64bits(want) {
						t.Fatalf("%s: cell %d = %v, want %v", name, e, got[1+e], want)
					}
				}
				var sum float64
				next := 0
				k.AtEntries(ts, func(e0 int, vals []float64) {
					if e0 != next {
						t.Fatalf("%s: chunk starts at entry %d, want %d", name, e0, next)
					}
					next += len(vals)
					for _, v := range vals {
						sum += v
					}
				})
				if next != count || math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("%s: AtEntries covered %d entries summing to %v, want %d and %v", name, next, sum, count, wantSum)
				}
			}
		}
	}
}

// randKruskal draws a rank-r model over dims with N(0,1) entries, signs
// included, so sums cancel and rounding shows.
func randKruskal(rng *rand.Rand, dims []int, r int) *Kruskal {
	fs := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		fs[n] = randFactor(rng, d, r)
		data := fs[n].Data()
		for i := range data {
			data[i] = rng.NormFloat64()
		}
	}
	return NewKruskal(fs...)
}

// randCells draws count cells over dims in no particular order, with the
// first cell repeated second and last.
func randCells(rng *rand.Rand, dims []int, count int) *Tensor {
	ts := New(dims...)
	idx := make([]int32, len(dims))
	for e := 0; e < count; e++ {
		for m, d := range dims {
			idx[m] = int32(rng.IntN(d))
		}
		if e == 1 || (e > 1 && e == count-1) {
			copy(idx, ts.Index(0))
		}
		ts.Append(idx, rng.NormFloat64())
	}
	return ts
}

// TestValidateNamesFirstBadEntry: Validate checks mode by mode and the values
// after the indices, but its message names the first bad entry in entry order
// — and within it the first bad mode, an index before the value — as the
// entry-by-entry scan it replaced did.
func TestValidateNamesFirstBadEntry(t *testing.T) {
	type fault struct {
		e, m int // m < 0: the value
		idx  int32
	}
	for _, tc := range []struct {
		name   string
		faults []fault
		want   string
	}{
		{"index", []fault{{4, 1, 5}}, "entry 4 mode 1 index 5 out of range [0,5)"},
		{"negative", []fault{{0, 2, -1}}, "entry 0 mode 2 index -1 out of range [0,4)"},
		{"value", []fault{{3, -1, 0}}, "entry 3 has non-finite value NaN"},
		// The mode-0 scan meets entry 5 first; entry 2's mode-2 index is first.
		{"later mode, earlier entry", []fault{{5, 0, 9}, {2, 2, 9}}, "entry 2 mode 2 index 9"},
		// The index scan runs before the value loop; entry 1's value is first.
		{"value before index", []fault{{6, 0, 9}, {1, -1, 0}}, "entry 1 has non-finite value"},
		{"index before value, same entry", []fault{{3, -1, 0}, {3, 1, -7}}, "entry 3 mode 1 index -7"},
		{"two modes, same entry", []fault{{2, 2, 4}, {2, 0, 7}}, "entry 2 mode 0 index 7"},
	} {
		rng := rand.New(rand.NewPCG(5, 5))
		ts := randCells(rng, []int{7, 5, 4}, 8)
		if err := ts.Validate(); err != nil {
			t.Fatalf("%s: a valid tensor fails: %v", tc.name, err)
		}
		for _, f := range tc.faults {
			if f.m < 0 {
				ts.Val[f.e] = math.NaN()
			} else {
				ts.Index(f.e)[f.m] = f.idx
			}
		}
		if err := ts.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
	ts := New(3)
	ts.Append([]int32{1}, math.Inf(-1))
	if err := ts.Validate(); err == nil || !strings.Contains(err.Error(), "entry 0 has non-finite value -Inf") {
		t.Errorf("-Inf: %v", err)
	}
	ts.Val[0] = math.MaxFloat64
	if err := ts.Validate(); err != nil {
		t.Errorf("the largest finite value is refused: %v", err)
	}
}
