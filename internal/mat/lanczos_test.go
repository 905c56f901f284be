package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The Ritz vectors come out of one MulATB; a column-at-a-time Axpy into a
// fresh column, copied into place, adds the same terms in the same order and
// must give the same bits.
func TestRitzAssemblyBitEqual(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	const n, steps, m, k = 301, 23, 22, 7 // m and k not multiples of four
	basis := randDense(rng, steps, n)
	s := randDense(rng, m, m)
	got := ritzVectors(basis, s, m, k)

	want := NewDense(n, k)
	for j := 0; j < k; j++ {
		col := make([]float64, n)
		for i := 0; i < m; i++ {
			Axpy(s.At(i, j), basis.Row(i), col)
		}
		for i := 0; i < n; i++ {
			want.Set(i, j, col[i])
		}
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("element %d: %v, per-column reference %v", i, v, want.Data()[i])
		}
	}
}

// dotRows is Dot row by row, bit for bit, for every row count mod 4.
func TestDotRowsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 54))
	for rows := 1; rows <= 9; rows++ {
		b := randDense(rng, rows, 257)
		x := randDense(rng, 1, 257).Row(0)
		h := make([]float64, rows)
		dotRows(h, x, b.Data())
		for r := range h {
			if want := Dot(b.Row(r), x); math.Float64bits(h[r]) != math.Float64bits(want) {
				t.Fatalf("rows=%d: h[%d] = %v, Dot %v", rows, r, h[r], want)
			}
		}
	}
}
