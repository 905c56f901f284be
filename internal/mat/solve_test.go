package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randSPD builds AᵀA + n·I, comfortably positive definite.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := Gram(a)
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{1, 2, 5, 20} {
		a := randSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := MulVec(a, x)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ch.SolveVec(b)
		for i := range x {
			if !almostEq(b[i], x[i], 1e-8) {
				t.Fatalf("n=%d: solution[%d] = %v, want %v", n, i, b[i], x[i])
			}
		}
	}
}

func TestCholeskyMatrixSolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	a := randSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Solve(Identity(6))
	if d := MaxAbsDiff(Mul(a, inv), Identity(6)); d > 1e-8 {
		t.Fatalf("A·A⁻¹ differs from I by %v", d)
	}
	b := randDense(rng, 6, 3)
	x := ch.Solve(b)
	if d := MaxAbsDiff(Mul(a, x), b); d > 1e-8 {
		t.Fatalf("A·X differs from B by %v", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUSolve(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		0, 2, 1, // leading zero forces pivoting
		1, 1, 1,
		2, 0, 3,
	})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.SolveVec([]float64{5, 6, 13})
	// Verify A·x = b.
	b := MulVec(a, x)
	for i, want := range []float64{5, 6, 13} {
		if !almostEq(b[i], want, 1e-10) {
			t.Fatalf("A·x[%d] = %v, want %v", i, b[i], want)
		}
	}
	inv := lu.Solve(Identity(3))
	if d := MaxAbsDiff(Mul(a, inv), Identity(3)); d > 1e-10 {
		t.Fatalf("LU inverse off by %v", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveSPDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, ^seed))
		n := 1 + int(seed%8)
		a := randSPD(rng, n)
		b := randDense(rng, n, 2)
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(Mul(a, x), b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// reconstruct returns V·diag(Values)·Vᵀ.
func reconstruct(e *Eigen) *Dense {
	scaled := e.Vectors.Clone()
	for i := 0; i < scaled.Rows(); i++ {
		for j, v := range e.Values {
			scaled.Row(i)[j] *= v
		}
	}
	return MulABT(scaled, e.Vectors)
}

// denseOp adapts a symmetric *Dense to the MatVec interface.
type denseOp struct{ m *Dense }

func (d denseOp) Dim() int { return d.m.Rows() }

func (d denseOp) Apply(dst, x []float64) { copy(dst, MulVec(d.m, x)) }

func TestSymEigenSmall(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 1, 1e-10) || !almostEq(e.Values[1], 3, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [1 3]", e.Values)
	}
	if d := MaxAbsDiff(reconstruct(e), a); d > 1e-10 {
		t.Fatalf("reconstruction off by %v", d)
	}
}

// A matrix whose off-diagonal mass starts under 1e-24 is still diagonalized:
// the stopping test is relative to ‖A‖²_F below 1.
func TestSymEigenScaled(t *testing.T) {
	for _, c := range []float64{1e-13, 1e-100} {
		a := NewDenseData(2, 2, []float64{2 * c, c, c, 2 * c})
		e, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(e.Values[0]/c, 1, 1e-10) || !almostEq(e.Values[1]/c, 3, 1e-10) {
			t.Fatalf("c=%g: eigenvalues = %v, want [%g %g]", c, e.Values, c, 3*c)
		}
		if d := MaxAbsDiff(reconstruct(e), a); d > 1e-10*c {
			t.Fatalf("c=%g: reconstruction off by %v", c, d)
		}
	}
}

func TestSymEigenReconstructsRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, n := range []int{1, 3, 10, 30} {
		a := randSPD(rng, n)
		e, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(reconstruct(e), a); d > 1e-7 {
			t.Fatalf("n=%d: reconstruction off by %v", n, d)
		}
		// Values sorted ascending.
		for i := 1; i < n; i++ {
			if e.Values[i] < e.Values[i-1] {
				t.Fatalf("n=%d: eigenvalues not ascending: %v", n, e.Values)
			}
		}
		// Orthonormal columns.
		vtv := MulATB(e.Vectors, e.Vectors)
		if d := MaxAbsDiff(vtv, Identity(n)); d > 1e-8 {
			t.Fatalf("n=%d: VᵀV differs from I by %v", n, d)
		}
	}
}

func TestLanczosMatchesJacobiOnSmallOperator(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	a := randSPD(rng, 40)
	exact, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	approx, err := Lanczos(denseOp{a}, k, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if !almostEq(approx.Values[j], exact.Values[j], 1e-6) {
			t.Fatalf("Ritz value %d = %v, want %v", j, approx.Values[j], exact.Values[j])
		}
		// Residual ‖A v − λ v‖ small.
		v := make([]float64, 40)
		for i := range v {
			v[i] = approx.Vectors.At(i, j)
		}
		av := MulVec(a, v)
		Axpy(-approx.Values[j], v, av)
		if r := Norm2(av); r > 1e-5 {
			t.Fatalf("Ritz pair %d residual %v", j, r)
		}
	}
}

func TestLanczosFullDimension(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	a := randSPD(rng, 12)
	exact, _ := SymEigen(a)
	e, err := Lanczos(denseOp{a}, 12, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := range e.Values {
		if !almostEq(e.Values[j], exact.Values[j], 1e-6) {
			t.Fatalf("full Lanczos value %d = %v, want %v", j, e.Values[j], exact.Values[j])
		}
	}
}

func TestLanczosBadK(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	a := randSPD(rng, 4)
	if _, err := Lanczos(denseOp{a}, 0, 0, rng); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Lanczos(denseOp{a}, 5, 0, rng); err == nil {
		t.Fatal("expected error for k>n")
	}
}

func TestLanczosEarlyInvariantSubspace(t *testing.T) {
	// Identity operator: Krylov space collapses after 1 step.
	rng := rand.New(rand.NewPCG(37, 38))
	id := Identity(10)
	e, err := Lanczos(denseOp{id}, 1, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 1, 1e-10) {
		t.Fatalf("identity eigenvalue = %v, want 1", e.Values[0])
	}
}

func BenchmarkCholeskySolve50(b *testing.B) {
	rng := rand.New(rand.NewPCG(41, 42))
	a := randSPD(rng, 50)
	rhs := randDense(rng, 50, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch, err := NewCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		_ = ch.Solve(rhs)
	}
}

func BenchmarkSymEigen50(b *testing.B) {
	rng := rand.New(rand.NewPCG(43, 44))
	a := randSPD(rng, 50)
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMulIntoRejectsAlias(t *testing.T) {
	// Not an alias check per se, but dimension misuse must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulInto(NewDense(2, 2), NewDense(2, 3), NewDense(2, 3))
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSolveVecChecksLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	a := randSPD(rng, 3)
	ch, _ := NewCholesky(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ch.SolveVec(make([]float64, 2))
}

func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	a := randSPD(rng, 5)
	inv, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(Mul(a, inv), Identity(5)); d > 1e-8 {
		t.Fatalf("InverseSPD off by %v", d)
	}
}

func TestMulVecChecksDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulVec(NewDense(2, 2), make([]float64, 3))
}

func TestNaNDetection(t *testing.T) {
	a := NewDenseData(1, 1, []float64{math.NaN()})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("Cholesky must reject NaN")
	}
}
