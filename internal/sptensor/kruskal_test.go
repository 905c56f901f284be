package sptensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"distenc/internal/cpu"
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

// atCellsBodies names the bodies AtCells can run at order 3 on this host,
// each by the cpu.GoBodies value that selects it: the Go body always, the
// AVX2 one where the build and CPU have it.
func atCellsBodies() map[string]bool {
	bodies := map[string]bool{"go": true}
	if hasVecCells {
		bodies["avx2"] = false
	}
	return bodies
}

// withGoBodies runs f with cpu.GoBodies set to goBody.
func withGoBodies(goBody bool, f func()) {
	old := cpu.GoBodies
	cpu.GoBodies = goBody
	defer func() { cpu.GoBodies = old }()
	f()
}

// agreesWithAt reports whether got is k.At(idx): the same bits or, where a
// multiply or add of At's chain meets two NaNs, any NaN. Which of two NaN
// operands' payloads x86 keeps depends on their order, and in Go code that
// order is the register allocator's choice (a -race build chooses unlike a
// plain one), so no body can be held to it; a single NaN's payload
// propagates wherever it sits, and is held bit for bit.
func agreesWithAt(k *Kruskal, idx []int32, got float64) bool {
	want := k.At(idx)
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	if !math.IsNaN(got) || !math.IsNaN(want) {
		return false
	}
	var s float64
	for j := 0; j < k.Rank(); j++ {
		p := k.Factors[0].At(int(idx[0]), j)
		for n := 1; n < len(k.Factors); n++ {
			v := k.Factors[n].At(int(idx[n]), j)
			if math.IsNaN(p) && math.IsNaN(v) {
				return true
			}
			p *= v
		}
		if math.IsNaN(s) && math.IsNaN(p) {
			return true
		}
		s += p
	}
	return false
}

// specialValue draws a float64 that is usually a normal number but one time
// in three a signed zero, a subnormal, a magnitude whose products overflow or
// underflow, an infinity or a NaN with a payload of its own (quiet or
// signalling, either sign), so that where two NaNs meet the operand order
// shows in the result.
func specialValue(rng *rand.Rand) float64 {
	if rng.IntN(3) != 0 {
		return rng.NormFloat64()
	}
	switch rng.IntN(7) {
	case 0:
		return math.Copysign(0, rng.NormFloat64())
	case 1:
		return rng.NormFloat64() * 0x1p-1060
	case 2:
		return rng.NormFloat64() * 0x1p400
	case 3:
		return math.Inf(1 - 2*rng.IntN(2))
	case 4:
		payload := 1 + rng.Uint64N(1<<51-1)
		return math.Float64frombits(uint64(rng.IntN(2))<<63 | 0x7ff8<<48 | payload)
	case 5:
		payload := 1 + rng.Uint64N(1<<51-1)
		return math.Float64frombits(uint64(rng.IntN(2))<<63 | 0x7ff0<<48 | payload)
	}
	return rng.NormFloat64() * 0x1p-400
}

// TestAtCellsBodiesMatchBits holds both order-3 bodies of AtCells, selected
// through cpu.GoBodies, to Kruskal.At at ranks 1–33 (every tail length of
// the four-lane body) and 64, and at cell counts around the AVX2 body's
// prefetch distance (8) and chunk edge (vecChunk), on factors full of signed
// zeros, subnormals, infinities, NaN payloads and products that overflow:
// every value Float64bits-equal (agreesWithAt), appended after what out held.
func TestAtCellsBodiesMatchBits(t *testing.T) {
	dims := []int{37, 23, 11}
	ranks := []int{64}
	for r := 1; r <= 33; r++ {
		ranks = append(ranks, r)
	}
	for _, rank := range ranks {
		rng := rand.New(rand.NewPCG(uint64(rank), 42))
		fs := make([]*mat.Dense, len(dims))
		for n, d := range dims {
			fs[n] = mat.NewDense(d, rank)
			for i := range fs[n].Data() {
				fs[n].Data()[i] = specialValue(rng)
			}
		}
		k := NewKruskal(fs...)
		all := randCells(rng, dims, vecChunk+1)
		for _, count := range []int{0, 1, 7, 8, 9, vecChunk - 1, vecChunk, vecChunk + 1} {
			flat := all.Idx[:3*count]
			for body, goBody := range atCellsBodies() {
				var got []float64
				withGoBodies(goBody, func() { got = k.AtCells(flat, []float64{-1}) })
				name := fmt.Sprintf("%s body, R=%d, %d cells", body, rank, count)
				if len(got) != 1+count || got[0] != -1 {
					t.Fatalf("%s: %d values after the one out held, want %d appended", name, len(got)-1, count)
				}
				for c := 0; c < count; c++ {
					if idx := flat[3*c : 3*c+3]; !agreesWithAt(k, idx, got[1+c]) {
						want := k.At(idx)
						t.Fatalf("%s: cell %d = %v (%#x), At %v (%#x)", name, c, got[1+c], math.Float64bits(got[1+c]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestAtCellsPanicsOnBadIndex: a negative and a too-large index, in each
// mode, make both bodies panic naming the first bad cell, as PredictBatch
// and every other caller rely on.
func TestAtCellsPanicsOnBadIndex(t *testing.T) {
	dims := []int{9, 7, 5}
	rng := rand.New(rand.NewPCG(8, 9))
	k := randKruskal(rng, dims, 6)
	for body, goBody := range atCellsBodies() {
		for n, d := range dims {
			for _, id := range []int32{-1, int32(d)} {
				cells := randCells(rng, dims, 40)
				cells.Index(13)[n] = id
				cells.Index(30)[(n+1)%3] = -5 // a later bad cell is not the one named
				name := fmt.Sprintf("%s body, mode %d index %d", body, n, id)
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					withGoBodies(goBody, func() { k.AtCells(cells.Idx, nil) })
					return ""
				}()
				if !strings.Contains(msg, "cell 13 ") {
					t.Errorf("%s: panic %q, want one naming cell 13", name, msg)
				}
			}
		}
	}
}

// FuzzAtCells holds both order-3 bodies of AtCells to Kruskal.At on
// fuzzer-built models and cells: rank 1–64, modes of 1–8 rows, up to 512
// cells in the fuzzer's order, and factor entries that are one time in four
// the fuzzer's raw bits — NaN payloads, infinities, subnormals — and
// otherwise moderate values. Every value must agree in Float64bits
// (agreesWithAt). CI runs it for a 30-second smoke.
func FuzzAtCells(f *testing.F) {
	f.Add(uint8(31), []byte{4, 5, 6, 0, 1, 2, 3, 4, 5, 1, 1, 1, 2, 0, 3, 0, 0, 0, 7, 7, 7, 9, 200, 13})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(63), []byte{7, 7, 7, 0xff, 0xf8, 0, 0, 0, 0, 0x12, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, rankByte uint8, data []byte) {
		if len(data) < 3 {
			return
		}
		rank := 1 + int(rankByte)%64
		dims := []int{1 + int(data[0])%8, 1 + int(data[1])%8, 1 + int(data[2])%8}
		var flat []int32
		for c := data[3:]; len(c) >= 3 && len(flat) < 3*512; c = c[3:] {
			for n, d := range dims {
				flat = append(flat, int32(int(c[n])%d))
			}
		}
		pos := 0
		next := func() byte {
			b := data[pos%len(data)]
			pos++
			return b
		}
		fs := make([]*mat.Dense, len(dims))
		for n, d := range dims {
			fs[n] = mat.NewDense(d, rank)
			for i := range fs[n].Data() {
				var w [9]byte
				for j := range w {
					w[j] = next()
				}
				bits := binary.LittleEndian.Uint64(w[1:])
				if w[0]%4 == 0 {
					fs[n].Data()[i] = math.Float64frombits(bits)
				} else {
					fs[n].Data()[i] = float64(int64(bits)>>40) / (1 << 12)
				}
			}
		}
		k := NewKruskal(fs...)
		for body, goBody := range atCellsBodies() {
			var got []float64
			withGoBodies(goBody, func() { got = k.AtCells(flat, nil) })
			if len(got) != len(flat)/3 {
				t.Fatalf("%s body: %d values for %d cells", body, len(got), len(flat)/3)
			}
			for c := range got {
				if idx := flat[3*c : 3*c+3]; !agreesWithAt(k, idx, got[c]) {
					want := k.At(idx)
					t.Fatalf("%s body, rank %d: cell %d = %v (%#x), At %v (%#x)", body, rank, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
				}
			}
		}
	})
}
