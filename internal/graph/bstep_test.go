package graph

import (
	"math"
	"math/rand/v2"
	"testing"

	"distenc/internal/cpu"
	"distenc/internal/mat"
)

// randRows returns an n×r matrix of standard normal entries.
func randRows(n, r int, rng *rand.Rand) *mat.Dense {
	m := mat.NewDense(n, r)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// relErr returns ‖got − want‖_F / ‖want‖_F.
func relErr(got, want *mat.Dense) float64 {
	return mat.SubMat(got, want).NormF() / want.NormF()
}

// TestBStepFixedPoint: iterated at fixed x = ηA − Y, η and α until it stops
// moving, the B-step reaches the exact B-update (ηI + αL)⁻¹x of Algorithm 1
// line 4, here the dense solve DirectInverseApply, to 1e-6 relative error, on
// a 1 500-node, 12-community graph (the facebook-sim similarity) at the
// default α. It does in 50 steps, to 1.4e-14. Before the step the solver
// applied the K = 20 Lanczos truncation through the Woodbury form, which on
// these inputs is 0.549 from the dense solve: no closer than x/η, at 0.550.
func TestBStepFixedPoint(t *testing.T) {
	const n, rank, eta, alpha = 1500, 4, 1.0, 0.1
	rng := rand.New(rand.NewPCG(21, 21))
	l := NewLaplacian(communityGraph(n, 12, 3, rng))
	a, y := randRows(n, rank, rng), randRows(n, rank, rng)
	x := a.Clone().Scale(eta).AddScaled(-1, y)
	want, err := DirectInverseApply(l, alpha, eta, x)
	if err != nil {
		t.Fatal(err)
	}

	b, next := a.Clone(), mat.NewDense(n, rank)
	steps := 0
	for ; steps < 5000; steps++ {
		l.BStep(next.Data(), b.Data(), a.Data(), y.Data(), 0, n, rank, eta, alpha, false)
		b, next = next, b
		if mat.MaxAbsDiff(b, next) <= 1e-13 {
			break
		}
	}
	if e := relErr(b, want); !(e <= 1e-6) {
		t.Errorf("after %d steps the B-step is %.3g from the exact B-update, want ≤ 1e-6", steps, e)
	}
	t.Logf("fixed point after %d steps, %.3g from the dense solve", steps, relErr(b, want))
}

// TestBStepRows pins the step's row arithmetic: a row without neighbours gets
// (ηA_i − Y_i)/η exactly, a linked row gets the damped mix, and under
// nonNeg negatives become zero.
func TestBStepRows(t *testing.T) {
	s := NewSimilarity(3)
	s.AddEdge(0, 1, 2)
	l := NewLaplacian(s)
	const eta, alpha = 2.0, 0.25
	a := []float64{1, -3, 2, 4, 5, -6}
	y := []float64{0.5, 1, -1, 2, 0.25, 3}
	prev := []float64{1, 2, 3, 4, 7, 8}
	dst := make([]float64, 6)
	row0 := func(r int) float64 { // d_0 = 2, neighbour row 1 with weight 2
		return (eta*a[r] - y[r] + alpha*(2*prev[r]+2*prev[2+r])) / (eta + 2*alpha*2)
	}
	for _, nonNeg := range []bool{false, true} {
		l.BStep(dst, prev, a, y, 0, 3, 2, eta, alpha, nonNeg)
		for r := 0; r < 2; r++ {
			want0, want2 := row0(r), (eta*a[4+r]-y[4+r])*(1/eta)
			if nonNeg {
				want0, want2 = math.Max(want0, 0), math.Max(want2, 0)
			}
			if math.Abs(dst[r]-want0) > 1e-15 {
				t.Errorf("nonNeg=%v: row 0 col %d = %v, want %v", nonNeg, r, dst[r], want0)
			}
			if math.Float64bits(dst[4+r]) != math.Float64bits(want2) {
				t.Errorf("nonNeg=%v: isolated row col %d = %v, want %v", nonNeg, r, dst[4+r], want2)
			}
		}
	}
}

// plainBStep is the B-step with one neighbour row per sweep, the loop BStep
// folds four at a time and runs four columns wide; the test reference for its
// bits and the /ref sibling of BenchmarkLaplacianBStep. Its products are
// rounded before they are added, as the step's are.
func plainBStep(l *Laplacian, dst, prev, a, y []float64, rank int, eta, alpha float64, nonNeg bool) {
	for i, d := range l.deg {
		out := dst[i*rank : (i+1)*rank]
		for r := range out {
			out[r] = d * prev[i*rank+r]
		}
		for k := l.off[i]; k < l.off[i+1]; k++ {
			j, s := int(l.col[k]), l.w[k]
			for r := range out {
				out[r] += float64(s * prev[j*rank+r])
			}
		}
		inv := 1 / (eta + float64(2*alpha*d))
		for r, v := range out {
			out[r] = (float64(eta*a[i*rank+r]) - y[i*rank+r] + float64(alpha*v)) * inv
			if nonNeg && out[r] < 0 {
				out[r] = 0
			}
		}
	}
}

// bstepBodies runs f once per body BStep can dispatch to on this host: the
// Go body always, the AVX2 one where the build and CPU have it.
func bstepBodies(t *testing.T, f func(t *testing.T)) {
	old := cpu.GoBodies
	defer func() { cpu.GoBodies = old }()
	for _, vec := range []bool{false, true} {
		if vec && !hasVecBStep {
			continue
		}
		cpu.GoBodies = !vec
		t.Run(map[bool]string{false: "go", true: "avx2"}[vec], f)
	}
}

// TestBStepMatchesPlainLoopBits: folding four neighbours per sweep, running
// four columns wide, and taking the step in row tiles change no bit of the
// result — each body on a community graph whose degrees cover every
// remainder mod 4, with weighted edges, at ranks below, at and above a
// sweep's width and at every tail of the AVX2 body's sixteen- and four-column
// steps, clamp on and off. A tiled call writes only its own rows.
func TestBStepMatchesPlainLoopBits(t *testing.T) {
	const n, eta, alpha = 300, 1.3, 0.2
	rng := rand.New(rand.NewPCG(23, 24))
	s := scaledGraph(communityGraph(n, 5, 6, rng), 0.7)
	s.AddEdge(0, n-1, 2.5)
	l := NewLaplacian(s)
	mods := map[int]bool{}
	for i := 0; i < n; i++ {
		mods[(l.off[i+1]-l.off[i])%4] = true
	}
	if len(mods) != 4 {
		t.Fatalf("degrees cover remainders %v mod 4, want all four", mods)
	}
	bstepBodies(t, func(t *testing.T) {
		for _, rank := range []int{1, 3, 5, 16, 19, 33} {
			a, y, prev := randRows(n, rank, rng), randRows(n, rank, rng), randRows(n, rank, rng)
			for _, nonNeg := range []bool{false, true} {
				want := make([]float64, n*rank)
				plainBStep(l, want, prev.Data(), a.Data(), y.Data(), rank, eta, alpha, nonNeg)
				whole := make([]float64, n*rank)
				l.BStep(whole, prev.Data(), a.Data(), y.Data(), 0, n, rank, eta, alpha, nonNeg)
				tiled := make([]float64, n*rank)
				for lo := 0; lo < n; lo += 28 {
					hi := min(lo+28, n)
					l.BStep(tiled, prev.Data(), a.Data(), y.Data(), lo, hi, rank, eta, alpha, nonNeg)
					for i, v := range tiled[hi*rank:] {
						if v != 0 {
							t.Fatalf("rank %d: the call on rows [%d, %d) wrote element %d", rank, lo, hi, hi*rank+i)
						}
					}
				}
				for i, v := range want {
					if math.Float64bits(whole[i]) != math.Float64bits(v) || math.Float64bits(tiled[i]) != math.Float64bits(v) {
						t.Fatalf("rank %d nonNeg=%v: element %d = %v whole, %v tiled; the plain loop gives %v", rank, nonNeg, i, whole[i], tiled[i], v)
					}
				}
			}
		}
	})
}

// TestBStepRejectsBadAdjacency: a neighbour id outside the graph panics in
// either body instead of reading outside prev.
func TestBStepRejectsBadAdjacency(t *testing.T) {
	s := NewSimilarity(3)
	s.AddEdge(0, 1, 1)
	l := NewLaplacian(s)
	l.col[0] = 7
	m := make([]float64, 3*4)
	bstepBodies(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("BStep over a neighbour id past the graph did not panic")
			}
		}()
		l.BStep(make([]float64, len(m)), m, m, m, 0, 3, 4, 1, 0.5, false)
	})
}

// BenchmarkLaplacianBStep times the B-step the solver takes per similarity
// mode and iteration, at R = 16 on community graphs of the shape of the
// solve-highdim (25 000 nodes) and canary (4 000) workloads, built the way
// BenchmarkTruncatedSpectral builds them. Each /ref sibling runs plainBStep,
// the one-neighbour-at-a-time Go loop, on the same inputs: the ledger gates
// BStep on its share of that (BENCH_spectral.json).
func BenchmarkLaplacianBStep(b *testing.B) {
	const rank = 16
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"n25000", 25_000},
		{"n4000", 4_000},
	} {
		rng := rand.New(rand.NewPCG(17, 17))
		l := NewLaplacian(communityGraph(bc.n, 12, 3, rng))
		a, y, prev := randRows(bc.n, rank, rng), randRows(bc.n, rank, rng), randRows(bc.n, rank, rng)
		dst := mat.NewDense(bc.n, rank)
		for _, k := range []struct {
			name string
			step func()
		}{
			{bc.name, func() { l.BStep(dst.Data(), prev.Data(), a.Data(), y.Data(), 0, bc.n, rank, 1, 0.1, false) }},
			{bc.name + "/ref", func() { plainBStep(l, dst.Data(), prev.Data(), a.Data(), y.Data(), rank, 1, 0.1, false) }},
		} {
			b.Run(k.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					k.step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.n), "ns/row")
			})
		}
	}
}
