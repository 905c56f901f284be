package graph

import (
	"math"
	"math/rand/v2"
	"testing"

	"distenc/internal/mat"
)

// communityGraph draws a community label for each of n objects uniformly
// from blocks and links every object to about deg others of its community
// with weight 1 — the similarity of the facebook-sim workloads, whose
// Laplacian has one null vector per connected community.
func communityGraph(n, blocks, deg int, rng *rand.Rand) *Similarity {
	members := make([][]int, blocks)
	for i := 0; i < n; i++ {
		b := rng.IntN(blocks)
		members[b] = append(members[b], i)
	}
	s := NewSimilarity(n)
	seen := map[[2]int]bool{}
	for _, ms := range members {
		for _, i := range ms {
			for range deg {
				j := ms[rng.IntN(len(ms))]
				key := [2]int{min(i, j), max(i, j)}
				if i == j || seen[key] {
					continue
				}
				seen[key] = true
				s.AddEdge(i, j, 1)
			}
		}
	}
	return s
}

// scaledGraph returns s with every weight multiplied by c.
func scaledGraph(s *Similarity, c float64) *Similarity {
	out := NewSimilarity(s.N)
	for i, es := range s.Adj {
		out.Adj[i] = make([]Edge, len(es))
		for k, e := range es {
			out.Adj[i][k] = Edge{To: e.To, Weight: c * e.Weight}
		}
	}
	return out
}

// denseOp adapts a symmetric *mat.Dense to mat.MatVec.
type denseOp struct{ m *mat.Dense }

func (d denseOp) Dim() int { return d.m.Rows() }

func (d denseOp) Apply(dst, x []float64) { copy(dst, mat.MulVec(d.m, x)) }

// column returns column j of m.
func column(m *mat.Dense, j int) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// explicitResidual returns ‖op·y − θ·y‖.
func explicitResidual(op mat.MatVec, y []float64, theta float64) float64 {
	r := make([]float64, len(y))
	op.Apply(r, y)
	mat.Axpy(-theta, y, r)
	return mat.Norm2(r)
}

// The Ritz vectors stay orthonormal to working precision with one
// Gram–Schmidt pass where DGKS allows it: on a Laplacian whose null space is
// 12-dimensional (the case single-vector Lanczos is worst at) and on a dense
// SPD operator.
func TestLanczosOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := mat.NewDense(200, 200)
	for i := range g.Data() {
		g.Data()[i] = rng.NormFloat64()
	}
	spd := mat.Gram(g)
	for i := 0; i < 200; i++ {
		spd.Add(i, i, 200)
	}
	for _, tc := range []struct {
		name string
		op   mat.MatVec
	}{
		{"laplacian-5000", NewLaplacian(communityGraph(5000, 12, 3, rng))},
		{"randSPD-200", denseOp{spd}},
	} {
		e, err := mat.Lanczos(tc.op, 20, 0, rand.New(rand.NewPCG(8, 8)))
		if err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(mat.MulATB(e.Vectors, e.Vectors), mat.Identity(len(e.Values))); d > 1e-12 {
			t.Errorf("%s: max|VᵀV − I| = %.3g, want ≤ 1e-12", tc.name, d)
		}
	}
}

// The same operator and the same rng give the same bits.
func TestLanczosDeterministic(t *testing.T) {
	l := NewLaplacian(communityGraph(2000, 12, 3, rand.New(rand.NewPCG(9, 9))))
	run := func() *mat.Eigen {
		e, err := mat.Lanczos(l, 20, 0, rand.New(rand.NewPCG(10, 10)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := run(), run()
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !same(a.Values, b.Values) || !same(a.Vectors.Data(), b.Vectors.Data()) || !same(a.Residuals, b.Residuals) {
		t.Fatal("two Lanczos runs from the same rng differ")
	}
}

// The invariant-subspace test is relative to ‖T‖: scaling every weight by c
// scales the returned values by c and changes neither how many pairs come
// back nor which. An absolute test stopped after one step at c = 1e-15 and
// returned the start vector's Rayleigh quotient as the only pair. Rounding
// differs from scale to scale and unconverged Ritz values amplify it, hence
// a tolerance of 1e-6·‖L‖₁ rather than bits.
func TestLanczosScaleInvariant(t *testing.T) {
	s := communityGraph(300, 3, 3, rand.New(rand.NewPCG(11, 11)))
	l := NewLaplacian(s)
	want, err := TruncatedSpectral(l, 10, rand.New(rand.NewPCG(12, 12)))
	if err != nil {
		t.Fatal(err)
	}
	norm := 2 * l.MaxDegree() // ‖L‖₁
	for _, c := range []float64{1e-15, 1e-9, 1e12} {
		got, err := TruncatedSpectral(NewLaplacian(scaledGraph(s, c)), 10, rand.New(rand.NewPCG(12, 12)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("c=%g: %d pairs, want %d", c, len(got.Values), len(want.Values))
		}
		for j, lam := range got.Values {
			if d := math.Abs(lam/c - want.Values[j]); d > 1e-6*norm {
				t.Errorf("c=%g: λ_%d/c = %v, want %v", c, j, lam/c, want.Values[j])
			}
		}
	}
}

// The dense decomposition of a Laplacian scaled by c is c times the
// unscaled one, down to weights whose squares are far below 1e-24.
func TestExactSpectralScaleInvariant(t *testing.T) {
	s := communityGraph(40, 2, 3, rand.New(rand.NewPCG(13, 13)))
	want, err := ExactSpectral(NewLaplacian(s))
	if err != nil {
		t.Fatal(err)
	}
	norm := 2 * NewLaplacian(s).MaxDegree() // ‖L‖₁
	for _, c := range []float64{1e-15, 1e-40} {
		got, err := ExactSpectral(NewLaplacian(scaledGraph(s, c)))
		if err != nil {
			t.Fatal(err)
		}
		for j, lam := range got.Values {
			if d := math.Abs(lam/c - want.Values[j]); d > 1e-9*norm {
				t.Errorf("c=%g: λ_%d/c = %v, want %v", c, j, lam/c, want.Values[j])
			}
		}
	}
}

// Every pair whose residual estimate says it converged is an eigenpair of
// the dense decomposition: its value is an exact eigenvalue and its vector
// lies in that eigenvalue's eigenspace. 200 steps on 600 nodes converge a
// dozen pairs, several of them in the 12-dimensional null space.
func TestLanczosConvergedPairsMatchJacobi(t *testing.T) {
	l := NewLaplacian(communityGraph(600, 12, 3, rand.New(rand.NewPCG(13, 13))))
	exact, err := ExactSpectral(l)
	if err != nil {
		t.Fatal(err)
	}
	e, err := mat.Lanczos(l, 20, 200, rand.New(rand.NewPCG(14, 14)))
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-8
	converged := 0
	for j, theta := range e.Values {
		if e.Residuals[j] >= tol {
			continue
		}
		converged++
		y := column(e.Vectors, j)
		// Project y onto the exact eigenvectors within a cluster of θ.
		nearest, inSpace := math.Inf(1), 0.0
		for i, lam := range exact.Values {
			nearest = math.Min(nearest, math.Abs(lam-theta))
			if math.Abs(lam-theta) < 1e-6 {
				c := mat.Dot(column(exact.Vectors, i), y)
				inSpace += c * c
			}
		}
		if nearest > tol {
			t.Errorf("pair %d: θ = %v is %.3g from the nearest eigenvalue", j, theta, nearest)
		}
		if 1-inSpace > tol {
			t.Errorf("pair %d: θ = %v, %.3g of its vector lies outside the eigenspace", j, theta, 1-inSpace)
		}
	}
	if converged < 4 {
		t.Fatalf("only %d pairs converged below %g: the test checks nothing", converged, tol)
	}
}

// The free residual estimate β_m·|s_{m,j}| agrees with ‖L·y_j − θ_j·y_j‖
// computed the long way, pair by pair.
func TestRitzResidualEstimate(t *testing.T) {
	l := NewLaplacian(communityGraph(2000, 12, 3, rand.New(rand.NewPCG(15, 15))))
	norm := 2 * l.MaxDegree() // ‖L‖₁
	e, err := mat.Lanczos(l, 20, 0, rand.New(rand.NewPCG(16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	for j, theta := range e.Values {
		r := explicitResidual(l, column(e.Vectors, j), theta)
		if d := math.Abs(e.Residuals[j] - r); d > 1e-10*norm {
			t.Errorf("pair %d: estimate %.6g, explicit %.6g", j, e.Residuals[j], r)
		}
	}
}

// BenchmarkTruncatedSpectral times the K = 20 decomposition (70 Lanczos
// steps) the solver's set-up ran once per mode with a similarity until the
// B-update became Laplacian.BStep, on community graphs of the shape of the
// solve-highdim and canary workloads. Not gated: the benchmark/ probe
// graph.truncated_spectral_ms still times this code.
func BenchmarkTruncatedSpectral(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"n25000", 25_000},
		{"n4000", 4_000},
	} {
		l := NewLaplacian(communityGraph(bc.n, 12, 3, rand.New(rand.NewPCG(17, 17))))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := TruncatedSpectral(l, 20, rand.New(rand.NewPCG(1, 2))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
