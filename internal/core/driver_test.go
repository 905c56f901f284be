package core

import (
	"encoding/binary"
	"math"
	"testing"

	"distenc/internal/cpu"
	"distenc/internal/graph"
	"distenc/internal/mat"
)

// useGoBodies sets cpu.GoBodies to on until tb ends, or until the next call:
// while it is set, every loop with an AVX2 body runs its Go twin — the fused
// kernel, mat's row algebra (AxpyRows, GramAddUpper), graph's B-step and
// sptensor's AtCells. It is the /ref side of every benchmark of this package
// that has one, and how a test runs both bodies on one host.
func useGoBodies(tb testing.TB, on bool) {
	old := cpu.GoBodies
	cpu.GoBodies = on
	tb.Cleanup(func() { cpu.GoBodies = old })
}

// driverBodyNames lists the body sets the driver pass can run on this host:
// the Go bodies always, the AVX2 ones where the build and CPU have them (the
// kernel's build constraints and probe, which mat's and graph's bodies
// share).
func driverBodyNames() []string {
	if hasVecKernel {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// wholeH is the view of full-height H_n matrices as one run each, as the
// serial solver passes them to update.
func wholeH(hs []*mat.Dense) [][]HRows {
	hv := make([][]HRows, len(hs))
	for n, h := range hs {
		hv[n] = []HRows{{Mode: int16(n), Vals: h.Data()}}
	}
	return hv
}

// mustUpdate runs one driver update from full-height H_n and fails tb on an
// error.
func mustUpdate(tb testing.TB, st *solverState, hs []*mat.Dense) float64 {
	tb.Helper()
	delta, err := st.update(wholeH(hs))
	if err != nil {
		tb.Fatal(err)
	}
	return delta
}

// fuzzFloats turns fuzzer bytes into values, three bytes each, the stream
// reused from its start when it runs out: moderate values and signed zeros,
// subnormals, magnitudes whose products overflow, infinities and NaN. NaN is
// the x86 default NaN, the only one the hardware generates, so which
// operand's payload an instruction propagates cannot tell two bodies apart.
type fuzzFloats struct {
	data []byte
	pos  int
}

func (f *fuzzFloats) next() float64 {
	var c [3]byte
	for i := range c {
		c[i] = f.data[f.pos%len(f.data)]
		f.pos++
	}
	p := binary.LittleEndian.Uint16(c[1:])
	sign := 1 - 2*float64(c[0]>>7)
	switch c[0] & 7 {
	case 4:
		return sign * math.Float64frombits(uint64(p)<<20)
	case 5:
		return sign * math.Ldexp(1+float64(p)/65536, 600+int(p%420))
	case 6:
		return math.Inf(int(sign))
	case 7:
		return math.Float64frombits(0xFFF8000000000000)
	}
	return float64(int16(p)) / 64
}

func (f *fuzzFloats) slice(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f.next()
	}
	return v
}

// FuzzDriverRows is the differential of every AVX2 body of the driver pass
// against its Go twin: mat.AxpyRows, mat.GramAddUpper and
// graph.Laplacian.BStep (on a fuzzer-built graph with fuzzer weights), at
// ranks 1–33 and 0–9 rows, every output Float64bits-equal. Without the AVX2
// bodies it runs the Go ones twice.
func FuzzDriverRows(f *testing.F) {
	f.Add([]byte{16, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{32, 9, 1, 0x84, 0, 0x80, 0x85, 1, 2, 0x06, 3, 4, 0x07, 0, 0})
	f.Add([]byte{0, 1, 0, 0x80, 0, 0})
	f.Add([]byte{19, 7, 1, 0x04, 0xff, 0xff, 0x05, 0xff, 0x7f, 0x85, 1, 0, 0x00, 0x40, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		rank, rows, nonNeg := 1+int(data[0])%33, int(data[1])%10, data[2]&1 == 1
		src := &fuzzFloats{data: data[3:]}
		eta, alpha := src.next(), src.next()
		x, bmat := src.slice(rank), src.slice(rank*rank)
		tile, a, y := src.slice(rows*rank), src.slice(rows*rank), src.slice(rows*rank)
		sim := graph.NewSimilarity(max(rows, 1))
		for i := 0; i+1 < rows; i++ {
			for j := i + 1; j < rows; j++ {
				if data[(i*rows+j)%len(data)]&3 == 0 {
					sim.AddEdge(i, j, src.next())
				}
			}
		}
		lap := graph.NewLaplacian(sim)
		prev := src.slice(max(rows, 1) * rank)
		g0 := src.slice(rank * rank)

		type outputs struct{ axpy, gram, bstep []float64 }
		run := func(vec bool) (o outputs) {
			useGoBodies(t, !vec)
			o.axpy = append([]float64(nil), x...)
			mat.AxpyRows(o.axpy, x, bmat)
			o.gram = append([]float64(nil), g0...)
			mat.GramAddUpper(o.gram, tile, rank)
			if rows > 0 {
				o.bstep = make([]float64, rows*rank)
				lap.BStep(o.bstep, prev, a, y, 0, rows, rank, eta, alpha, nonNeg)
			}
			return o
		}
		want, got := run(false), run(true)
		same := func(what string, w, g []float64) {
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
					t.Fatalf("rank %d, %d rows: %s[%d] = %v (%#x), Go body %v (%#x)", rank, rows, what, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
				}
			}
		}
		same("AxpyRows", want.axpy, got.axpy)
		same("GramAddUpper", want.gram, got.gram)
		same("BStep", want.bstep, got.bstep)
	})
}
