package mat

import (
	"math"
	"math/rand/v2"
	"testing"

	"distenc/internal/cpu"
)

// specialValue draws a float64 that is usually a normal number but one time
// in four a signed zero, a subnormal, a value whose products overflow, an
// infinity or NaN. NaN is the x86 default NaN, the only one the hardware
// generates, so which operand's payload an instruction propagates cannot
// tell two bodies apart.
func specialValue(rng *rand.Rand) float64 {
	if rng.IntN(4) != 0 {
		return rng.NormFloat64()
	}
	switch rng.IntN(6) {
	case 0:
		return math.Copysign(0, rng.NormFloat64())
	case 1:
		return rng.NormFloat64() * 0x1p-1060
	case 2:
		return rng.NormFloat64() * 0x1p600
	case 3:
		return math.Inf(1 - 2*rng.IntN(2))
	case 4:
		return math.Float64frombits(0xFFF8000000000000)
	}
	return rng.NormFloat64() * 0x1p-520
}

// TestRowBodiesMatchGoBits holds the AVX2 bodies of AxpyRows and
// GramAddUpper to their Go bodies, Float64bits-equal on every output, at
// widths 1–33 (every tail of the four- and sixteen-column steps) and row
// counts 0–9, on inputs with signed zeros, subnormals, overflowing
// magnitudes, infinities and NaN; GramAddUpper's lower triangle must keep
// its sentinel.
func TestRowBodiesMatchGoBits(t *testing.T) {
	if !hasVecRows {
		t.Skip("this build or CPU has no AVX2 row bodies")
	}
	rng := rand.New(rand.NewPCG(41, 42))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = specialValue(rng)
		}
		return v
	}
	bits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v (%#x), Go body %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for r := 1; r <= 33; r++ {
		for k := 0; k <= 9; k++ {
			dst, x, b := fill(r), fill(k), fill(k*r)
			want := append([]float64(nil), dst...)
			axpyRowsGo(want, x, b)
			axpyRowsAVX2(dst, x, b)
			bits("AxpyRows", dst, want)

			g, rows := fill(r*r), fill(k*r)
			for i := 0; i < r; i++ {
				for j := 0; j < i; j++ {
					g[i*r+j] = 12345
				}
			}
			wantG := append([]float64(nil), g...)
			gramAddUpperGo(wantG, rows, r)
			if k > 0 {
				gramAddUpperAVX2(g, rows, r)
			}
			bits("GramAddUpper", g, wantG)
		}
	}
}

// BenchmarkGram times the Gram of a 25 000 × 16 factor, solve-highdim's
// long modes, as the first driver update computes it.
func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randDense(rng, 25_000, 16)
	for _, vec := range []bool{true, false} {
		b.Run(map[bool]string{true: "avx2", false: "go"}[vec], func(b *testing.B) {
			if vec && !hasVecRows {
				b.Skip("no AVX2 row bodies")
			}
			old := cpu.GoBodies
			cpu.GoBodies = !vec
			defer func() { cpu.GoBodies = old }()
			for b.Loop() {
				Gram(a)
			}
		})
	}
}
