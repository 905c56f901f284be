package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"distenc/internal/mat"
)

// blockCommunity plants nBlocks equal communities: objects in the same block
// are connected with probability inP, across blocks with probability outP.
func blockCommunity(n, nBlocks int, inP, outP float64, rng *rand.Rand) *Similarity {
	s := NewSimilarity(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := outP
			if BlockOf(i, n, nBlocks) == BlockOf(j, n, nBlocks) {
				p = inP
			}
			if rng.Float64() < p {
				s.AddEdge(i, j, 1)
			}
		}
	}
	return s
}

func TestTriDiagonalShape(t *testing.T) {
	s := TriDiagonal(5)
	if s.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", s.NumEdges())
	}
	d := s.Degrees()
	if d[0] != 1 || d[2] != 2 || d[4] != 1 {
		t.Fatalf("degrees = %v", d)
	}
}

func TestAddEdgePanics(t *testing.T) {
	s := NewSimilarity(3)
	for _, c := range []struct{ i, j int }{{1, 1}, {0, 5}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge(%d,%d) should panic", c.i, c.j)
				}
			}()
			s.AddEdge(c.i, c.j, 1)
		}()
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := blockCommunity(20, 4, 0.8, 0.05, rng)
	l := NewLaplacian(s)
	d := l.Dense()
	ones := make([]float64, 20)
	for i := range ones {
		ones[i] = 1
	}
	lx := mat.MulVec(d, ones)
	for i, v := range lx {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("L·1 row %d = %v, want 0", i, v)
		}
	}
}

func TestLaplacianApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := blockCommunity(15, 3, 0.7, 0.1, rng)
	l := NewLaplacian(s)
	d := l.Dense()
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 15)
	l.Apply(got, x)
	want := mat.MulVec(d, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("Apply[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: the Laplacian is PSD — xᵀLx ≥ 0.
func TestLaplacianPSDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+3))
		n := 3 + int(seed%20)
		s := blockCommunity(n, 1+int(seed%4), 0.5, 0.1, rng)
		l := NewLaplacian(s)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lx := make([]float64, n)
		l.Apply(lx, x)
		return mat.Dot(x, lx) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceQuadraticMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := TriDiagonal(10)
	l := NewLaplacian(s)
	b := mat.NewDense(10, 3)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	got := l.TraceQuadratic(b)
	// tr(BᵀLB) densely.
	lb := mat.Mul(l.Dense(), b)
	btlb := mat.MulATB(b, lb)
	var want float64
	for i := 0; i < 3; i++ {
		want += btlb.At(i, i)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TraceQuadratic = %v, want %v", got, want)
	}
}

func TestExactSpectralInverseApply(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	s := blockCommunity(12, 3, 0.7, 0.1, rng)
	l := NewLaplacian(s)
	sp, err := ExactSpectral(l)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.full || len(sp.Values) != 12 || sp.n != 12 {
		t.Fatalf("spectral meta wrong: %+v", sp)
	}
	x := mat.NewDense(12, 2)
	for i := 0; i < 12; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
	}
	const alpha, eta = 0.3, 0.7
	got := sp.InverseApply(alpha, eta, x)
	want, err := DirectInverseApply(l, alpha, eta, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("InverseApply differs from direct solve by %v", d)
	}
	// Left-to-right ordering must agree numerically (it is only slower).
	ltr := sp.InverseApplyLeftToRight(alpha, eta, x)
	if d := mat.MaxAbsDiff(got, ltr); d > 1e-8 {
		t.Fatalf("orderings disagree by %v", d)
	}
}

func TestTruncatedSpectralApproximates(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	// Strong 3-community structure: spectrum has 3 small eigenvalues, so a
	// K=6 truncation captures the smooth part well.
	s := blockCommunity(30, 3, 0.9, 0.02, rng)
	l := NewLaplacian(s)
	exact, err := ExactSpectral(l)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TruncatedSpectral(l, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.full || len(tr.Values) != 6 {
		t.Fatalf("truncated meta wrong: rank=%d full=%v", len(tr.Values), tr.full)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(tr.Values[j]-exact.Values[j]) > 1e-5 {
			t.Fatalf("eigenvalue %d: %v vs %v", j, tr.Values[j], exact.Values[j])
		}
	}
	// Woodbury form: on the span of the kept eigenvectors the truncated
	// inverse matches the exact one. Use the second eigenvector as input.
	x := mat.NewDense(30, 1)
	for i := 0; i < 30; i++ {
		x.Set(i, 0, exact.Vectors.At(i, 1))
	}
	const alpha, eta = 0.5, 1.0
	got := tr.InverseApply(alpha, eta, x)
	want := exact.InverseApply(alpha, eta, x)
	if d := mat.MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("truncated inverse on kept eigenvector off by %v", d)
	}
	// Truncated left-to-right ordering agrees with truncated right-to-left.
	y := mat.NewDense(30, 2)
	for i := 0; i < 30; i++ {
		y.Set(i, 0, rng.NormFloat64())
		y.Set(i, 1, rng.NormFloat64())
	}
	if d := mat.MaxAbsDiff(tr.InverseApply(alpha, eta, y), tr.InverseApplyLeftToRight(alpha, eta, y)); d > 1e-8 {
		t.Fatalf("truncated orderings disagree by %v", d)
	}
}

func TestTruncatedSpectralErrors(t *testing.T) {
	l := NewLaplacian(TriDiagonal(5))
	rng := rand.New(rand.NewPCG(6, 6))
	if _, err := TruncatedSpectral(l, 0, rng); err == nil {
		t.Fatal("expected error for k=0")
	}
	// k >= n falls back to exact.
	sp, err := TruncatedSpectral(l, 10, rng)
	if err != nil || !sp.full {
		t.Fatalf("k>=n should be exact: %v %v", sp, err)
	}
}

func TestInverseApplyDimCheck(t *testing.T) {
	l := NewLaplacian(TriDiagonal(4))
	sp, _ := ExactSpectral(l)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sp.InverseApply(1, 1, mat.NewDense(5, 1))
}

func TestBlockOf(t *testing.T) {
	if BlockOf(0, 10, 2) != 0 || BlockOf(9, 10, 2) != 1 || BlockOf(5, 10, 2) != 1 {
		t.Fatal("BlockOf boundaries wrong")
	}
}

func TestIdentitySimilarityLaplacianIsZero(t *testing.T) {
	l := NewLaplacian(NewSimilarity(4))
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	l.Apply(dst, x)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("empty similarity must give zero Laplacian")
		}
	}
}
