package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDensePanicsOnBadData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 3, make([]float64, 5))
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", row[2])
	}
	row[0] = 1 // row is a view
	if m.At(1, 0) != 1 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := randDense(rng, 3, 5)
	mt := m.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			// A transpose copies values verbatim; require bit identity.
			if math.Float64bits(m.At(i, j)) != math.Float64bits(mt.At(j, i)) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
	if d := MaxAbsDiff(m, mt.T()); d != 0 {
		t.Fatalf("double transpose differs by %v", d)
	}
}

func TestMulAgainstHand(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Mul mismatch: got %v want %v", got, want)
	}
}

func TestMulATBAndABT(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randDense(rng, 6, 4)
	b := randDense(rng, 6, 3)
	got := MulATB(a, b)
	want := Mul(a.T(), b)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("MulATB differs from explicit transpose by %v", d)
	}
	c := randDense(rng, 5, 4)
	got2 := MulABT(a, c)
	want2 := Mul(a, c.T())
	if d := MaxAbsDiff(got2, want2); d > 1e-12 {
		t.Fatalf("MulABT differs from explicit transpose by %v", d)
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randDense(rng, 8, 4)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("Gram not symmetric at %d,%d", i, j)
			}
		}
	}
	// xᵀGx = ‖Ax‖² ≥ 0.
	x := []float64{1, -2, 0.5, 3}
	if q := Dot(x, MulVec(g, x)); q < -1e-12 {
		t.Fatalf("Gram not PSD: quadratic form %v", q)
	}
}

// Khatri-Rao column r must equal the Kronecker product of columns r.
func TestKhatriRaoMatchesKroneckerColumns(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := randDense(rng, 3, 4)
	b := randDense(rng, 5, 4)
	kr := KhatriRao(a, b)
	if r, c := kr.Dims(); r != 15 || c != 4 {
		t.Fatalf("KhatriRao dims %d×%d, want 15×4", r, c)
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			for k := 0; k < 5; k++ {
				want := a.At(i, r) * b.At(k, r)
				if got := kr.At(i*5+k, r); !almostEq(got, want, 1e-12) {
					t.Fatalf("KhatriRao[%d,%d] = %v, want %v", i*5+k, r, got, want)
				}
			}
		}
	}
}

// Property: (A⊙B)ᵀ(A⊙B) == (AᵀA) ∗ (BᵀB). This identity is the heart of the
// paper's Eq. (12) optimization.
func TestKhatriRaoGramIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		ia, ib, r := 2+int(seed%5), 2+int((seed>>8)%5), 1+int((seed>>16)%4)
		a := randDense(rng, ia, r)
		b := randDense(rng, ib, r)
		lhs := Gram(KhatriRao(a, b))
		rhs := Gram(a).HadamardInPlace(Gram(b))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHadamardAndArithmetic(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	h := a.Clone().HadamardInPlace(b)
	want := NewDenseData(2, 2, []float64{5, 12, 21, 32})
	if MaxAbsDiff(h, want) != 0 {
		t.Fatalf("HadamardInPlace = %v, want %v", h, want)
	}
	s := AddMat(a, b)
	if s.At(1, 1) != 12 {
		t.Fatalf("AddMat wrong: %v", s)
	}
	d := SubMat(b, a)
	if d.At(0, 0) != 4 {
		t.Fatalf("SubMat wrong: %v", d)
	}
	ac := a.Clone().Scale(2)
	if ac.At(1, 0) != 6 || a.At(1, 0) != 3 {
		t.Fatal("Scale must not alias Clone source")
	}
}

func TestMulVecAndMulTVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	y := MulVec(a, x)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
	z := MulVec(a.T(), []float64{1, 1})
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("MulVec of the transpose = %v", z)
	}
}

func TestNormF(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, 0, 0, 4})
	if got := m.NormF(); !almostEq(got, 5, 1e-12) {
		t.Fatalf("NormF = %v, want 5", got)
	}
}

func TestIdentity(t *testing.T) {
	want := NewDenseData(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	if id := Identity(3); MaxAbsDiff(id, want) != 0 {
		t.Fatalf("Identity(3) = %v", id)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatal("Norm2")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	n := Normalize(x)
	if !almostEq(n, 5, 1e-12) || !almostEq(Norm2(x), 1, 1e-12) {
		t.Fatal("Normalize")
	}
	if Normalize([]float64{0, 0}) != 0 {
		t.Fatal("Normalize of zero vector must return 0")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewDenseData(1, 2, []float64{1, 2})
	if s := small.String(); s == "" {
		t.Fatal("empty String")
	}
	big := NewDense(20, 20)
	if s := big.String(); s != "Dense(20×20)" {
		t.Fatalf("large String = %q", s)
	}
}

// The driver-algebra shapes of the solve-highdim workload: I×R·R×R (Eq. 16),
// I×K·K×R and (I×K)ᵀ·I×R (the spectral B update), I = 25000, R = 16, K = 20.
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	a, c := randDense(rng, 25000, 16), randDense(rng, 16, 16)
	dst := NewDense(25000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}

func BenchmarkMulATB(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	v, x := randDense(rng, 25000, 20), randDense(rng, 25000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulATB(v, x)
	}
}

// TestBlockedProductsMatchNaiveBits holds the four-rows-per-sweep kernels to
// the sums of the plain one-row-at-a-time loops, bit for bit, on shapes whose
// inner dimension is and is not a multiple of four (tails of 0–3).
func TestBlockedProductsMatchNaiveBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, shape := range [][3]int{{9, 16, 16}, {10, 7, 5}, {5, 1, 3}, {4, 4, 1}, {3, 0, 2}, {13, 22, 9}} {
		m, p, n := shape[0], shape[1], shape[2]
		a, b, c := randDense(rng, m, p), randDense(rng, p, n), randDense(rng, m, n)
		const s = 0.375
		want := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, s*c.At(i, j))
			}
			for k := 0; k < p; k++ {
				for j := 0; j < n; j++ {
					want.Add(i, j, a.At(i, k)*b.At(k, j))
				}
			}
		}
		got := randDense(rng, m, n) // stale contents must not leak through
		MulAddInto(got, s, c, a, b)
		// aᵀ·c accumulated row by row of a, as MulATB's contract states.
		wantATB := NewDense(p, n)
		for k := 0; k < m; k++ {
			for i := 0; i < p; i++ {
				for j := 0; j < n; j++ {
					wantATB.Add(i, j, a.At(k, i)*c.At(k, j))
				}
			}
		}
		for name, pair := range map[string][2]*Dense{"MulAddInto": {got, want}, "MulATB": {MulATB(a, c), wantATB}} {
			for i, v := range pair[1].Data() {
				if math.Float64bits(pair[0].Data()[i]) != math.Float64bits(v) {
					t.Fatalf("%s %d×%d·%d×%d: element %d = %v, naive loop gives %v", name, m, p, p, n, i, pair[0].Data()[i], v)
				}
			}
		}
		// In place on c (dst aliases c) must give the same answer.
		MulAddInto(c, s, c, a, b)
		if MaxAbsDiff(c, want) != 0 {
			t.Fatalf("MulAddInto with dst aliasing c differs for %v", shape)
		}
	}
}

// TestGramMatchesMulATBBits: Gram's upper-triangle kernel plus mirror is
// MulATB(a, a) bit for bit, whole and accumulated tile by tile in row order
// (how the solver's driver pass builds the next Grams; a 7-row tile leaves a
// different remainder in every tile), on row counts with every remainder
// mod 4 and one (300) that spans several chunks of the AVX2 body, and on
// widths below, at and above one four-wide sweep.
func TestGramMatchesMulATBBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, cols := range []int{1, 3, 10, 16} {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 300} {
			a := randDense(rng, rows, cols)
			want := MulATB(a, a)
			tiled := NewDense(cols, cols)
			for lo := 0; lo < rows; lo += 7 {
				GramAddUpper(tiled.data, a.data[lo*cols:min(lo+7, rows)*cols], cols)
			}
			MirrorUpper(tiled.data, cols)
			for name, got := range map[string]*Dense{"Gram": Gram(a), "tiled": tiled} {
				for i, v := range want.data {
					if math.Float64bits(got.data[i]) != math.Float64bits(v) {
						t.Fatalf("%s of %d×%d: element %d = %v, MulATB gives %v", name, rows, cols, i, got.data[i], v)
					}
				}
			}
		}
	}
}
