package sptensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"distenc/internal/mat"
)

func randFactor(rng *rand.Rand, rows, r int) *mat.Dense {
	f := mat.NewDense(rows, r)
	for i := 0; i < rows; i++ {
		row := f.Row(i)
		for j := range row {
			row[j] = rng.Float64()
		}
	}
	return f
}

func randSparse(rng *rand.Rand, dims []int, nnz int) *Tensor {
	t := New(dims...)
	idx := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = int32(rng.IntN(d))
		}
		t.Append(idx, rng.NormFloat64())
	}
	return t.Coalesce()
}

func TestAppendAndAccessors(t *testing.T) {
	ts := New(3, 4, 5)
	ts.Append([]int32{1, 2, 3}, 2.5)
	ts.Append([]int32{0, 0, 0}, -1)
	if ts.Order() != 3 || ts.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", ts.Order(), ts.NNZ())
	}
	idx := ts.Index(0)
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 3 {
		t.Fatalf("Index(0) = %v", idx)
	}
	if got := ts.NormF(); math.Abs(got-math.Sqrt(2.5*2.5+1)) > 1e-12 {
		t.Fatalf("NormF = %v", got)
	}
}

func TestAppendPanicsOutOfRange(t *testing.T) {
	ts := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts.Append([]int32{0, 2}, 1)
}

func TestAppendPanicsWrongArity(t *testing.T) {
	ts := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts.Append([]int32{0}, 1)
}

func TestCoalesceMergesAndDropsZeros(t *testing.T) {
	ts := New(4, 4)
	ts.Append([]int32{1, 1}, 2)
	ts.Append([]int32{0, 3}, 5)
	ts.Append([]int32{1, 1}, 3)
	ts.Append([]int32{2, 2}, 1)
	ts.Append([]int32{2, 2}, -1) // cancels to zero
	ts.Coalesce()
	if ts.NNZ() != 2 {
		t.Fatalf("NNZ after coalesce = %d, want 2", ts.NNZ())
	}
	found := map[[2]int32]float64{}
	for e := 0; e < ts.NNZ(); e++ {
		idx := ts.Index(e)
		found[[2]int32{idx[0], idx[1]}] = ts.Val[e]
	}
	if found[[2]int32{1, 1}] != 5 || found[[2]int32{0, 3}] != 5 {
		t.Fatalf("coalesced values = %v", found)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModeCounts(t *testing.T) {
	ts := New(3, 2)
	ts.Append([]int32{0, 0}, 1)
	ts.Append([]int32{0, 1}, 1)
	ts.Append([]int32{2, 0}, 1)
	c := ts.ModeCounts(0)
	if c[0] != 2 || c[1] != 0 || c[2] != 1 {
		t.Fatalf("ModeCounts(0) = %v", c)
	}
	c1 := ts.ModeCounts(1)
	if c1[0] != 2 || c1[1] != 1 {
		t.Fatalf("ModeCounts(1) = %v", c1)
	}
}

func TestSplitPreservesEntries(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	ts := randSparse(rng, []int{20, 20, 20}, 500)
	train, test := ts.Split(0.3, rng)
	if train.NNZ()+test.NNZ() != ts.NNZ() {
		t.Fatalf("split lost entries: %d+%d != %d", train.NNZ(), test.NNZ(), ts.NNZ())
	}
	frac := float64(test.NNZ()) / float64(ts.NNZ())
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("test fraction %v too far from 0.3", frac)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{1, 1}, 1)
	ts.Val[0] = math.NaN()
	if err := ts.Validate(); err == nil {
		t.Fatal("Validate must reject NaN")
	}
	ts.Val[0] = 1
	ts.Idx[0] = 9
	if err := ts.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range index")
	}
	bad := &Tensor{Dims: []int{2}, Idx: []int32{0, 1}, Val: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate must reject inconsistent storage")
	}
}

func TestKruskalAtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	k := NewKruskal(randFactor(rng, 4, 3), randFactor(rng, 5, 3), randFactor(rng, 6, 3))
	d := FromKruskal(k)
	idx := []int32{2, 4, 1}
	if math.Abs(k.At(idx)-d.At(idx)) > 1e-12 {
		t.Fatalf("Kruskal At %v != dense %v", k.At(idx), d.At(idx))
	}
	if dims := k.Dims(); dims[0] != 4 || dims[1] != 5 || dims[2] != 6 {
		t.Fatalf("Dims = %v", dims)
	}
	if k.Rank() != 3 {
		t.Fatalf("Rank = %d", k.Rank())
	}
}

func TestKruskalCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	k := NewKruskal(randFactor(rng, 3, 2), randFactor(rng, 3, 2))
	c := k.Clone()
	c.Factors[0].Set(0, 0, 999)
	if k.Factors[0].At(0, 0) == 999 {
		t.Fatal("Clone must deep-copy factors")
	}
}

func TestNewKruskalPanicsOnRankMismatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKruskal(randFactor(rng, 3, 2), randFactor(rng, 3, 3))
}

// MTTKRP must agree with the explicit matricized product X_(n)·U(n).
func TestMTTKRPMatchesExplicitUnfolding(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	dims := []int{4, 5, 6}
	const r = 3
	ts := randSparse(rng, dims, 40)
	factors := []*mat.Dense{
		randFactor(rng, 4, r), randFactor(rng, 5, r), randFactor(rng, 6, r),
	}
	dense := NewDenseTensor(ts.Dims...)
	for e := 0; e < ts.NNZ(); e++ {
		dense.Add(ts.Index(e), ts.Val[e])
	}
	for n := 0; n < 3; n++ {
		got := MTTKRP(ts, factors, n, nil)
		// U(n) = A(N) ⊙ … ⊙ A(n+1) ⊙ A(n-1) ⊙ … ⊙ A(1): Khatri-Rao of the
		// other factors with the *later* modes varying slowest, matching the
		// column order of Matricize (earlier modes vary fastest).
		var u *mat.Dense
		for k := 0; k < 3; k++ {
			if k == n {
				continue
			}
			if u == nil {
				u = factors[k]
			} else {
				u = mat.KhatriRao(factors[k], u)
			}
		}
		want := mat.Mul(dense.Matricize(n), u)
		if d := mat.MaxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("mode %d: MTTKRP differs from explicit by %v", n, d)
		}
	}
}

// Property: GramProduct equals the Gram of the explicit Khatri-Rao product.
func TestGramProductProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		r := 1 + int(seed%4)
		dims := []int{2 + int(seed%3), 2 + int((seed>>4)%3), 2 + int((seed>>8)%3)}
		factors := make([]*mat.Dense, 3)
		grams := make([]*mat.Dense, 3)
		for k := range factors {
			factors[k] = randFactor(rng, dims[k], r)
			grams[k] = mat.Gram(factors[k])
		}
		for n := 0; n < 3; n++ {
			var u *mat.Dense
			for k := 0; k < 3; k++ {
				if k == n {
					continue
				}
				if u == nil {
					u = factors[k]
				} else {
					u = mat.KhatriRao(factors[k], u)
				}
			}
			if mat.MaxAbsDiff(GramProduct(grams, n), mat.Gram(u)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualZeroForExactModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	k := NewKruskal(randFactor(rng, 5, 2), randFactor(rng, 6, 2), randFactor(rng, 7, 2))
	// Observe the model exactly.
	ts := New(5, 6, 7)
	idx := make([]int32, 3)
	for e := 0; e < 30; e++ {
		idx[0], idx[1], idx[2] = int32(rng.IntN(5)), int32(rng.IntN(6)), int32(rng.IntN(7))
		ts.Append(idx, k.At(idx))
	}
	res := Residual(ts, k)
	if res.NNZ() != ts.NNZ() {
		t.Fatalf("residual nnz %d != %d", res.NNZ(), ts.NNZ())
	}
	if n := res.NormF(); n > 1e-10 {
		t.Fatalf("residual of exact model has norm %v", n)
	}
}

// The §III-D identity: X_(n)U = A(n)·(UᵀU) + E_(n)U, where X is the completed
// tensor T + Ωᶜ∗[[A]]. We verify it densely on a small instance.
func TestResidualIdentityEq16(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	dims := []int{4, 5, 6}
	const r = 2
	factors := []*mat.Dense{
		randFactor(rng, 4, r), randFactor(rng, 5, r), randFactor(rng, 6, r),
	}
	k := NewKruskal(factors...)
	obs := randSparse(rng, dims, 25)

	// Completed dense tensor X = T on Ω, [[A]] elsewhere.
	x := FromKruskal(k)
	for e := 0; e < obs.NNZ(); e++ {
		x.Set(obs.Index(e), obs.Val[e])
	}
	grams := []*mat.Dense{mat.Gram(factors[0]), mat.Gram(factors[1]), mat.Gram(factors[2])}
	resid := Residual(obs, k)
	for n := 0; n < 3; n++ {
		var u *mat.Dense
		for kk := 0; kk < 3; kk++ {
			if kk == n {
				continue
			}
			if u == nil {
				u = factors[kk]
			} else {
				u = mat.KhatriRao(factors[kk], u)
			}
		}
		lhs := mat.Mul(x.Matricize(n), u)
		rhs := mat.Mul(factors[n], GramProduct(grams, n))
		rhs = mat.AddMat(rhs, MTTKRP(resid, factors, n, nil))
		if d := mat.MaxAbsDiff(lhs, rhs); d > 1e-9 {
			t.Fatalf("mode %d: Eq.16 violated by %v", n, d)
		}
	}
}

func TestMTTKRPScratchValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	ts := randSparse(rng, []int{3, 3, 3}, 5)
	factors := []*mat.Dense{randFactor(rng, 3, 2), randFactor(rng, 3, 2), randFactor(rng, 3, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad scratch")
		}
	}()
	MTTKRP(ts, factors, 0, make([]float64, 5))
}

func TestMTTKRPFlops(t *testing.T) {
	if got := MTTKRPFlops(100, 3, 10); got != 100*10*5 {
		t.Fatalf("MTTKRPFlops = %d", got)
	}
}

func TestDenseTensorMatricizeShape(t *testing.T) {
	d := NewDenseTensor(2, 3, 4)
	d.Set([]int32{1, 2, 3}, 9)
	m := d.Matricize(1)
	if r, c := m.Dims(); r != 3 || c != 8 {
		t.Fatalf("Matricize dims %d×%d, want 3×8", r, c)
	}
	// Column index for (i0=1, i2=3) in mode-1 unfolding: 1 + 3*2 = 7.
	if m.At(2, 7) != 9 {
		t.Fatalf("element landed at wrong place: %v", m)
	}
	if d.NormF() != 9 {
		t.Fatalf("NormF = %v", d.NormF())
	}
}

func TestCloneIndependence(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{0, 0}, 1)
	c := ts.Clone()
	c.Val[0] = 5
	c.Idx[0] = 1
	if ts.Val[0] != 1 || ts.Idx[0] != 0 {
		t.Fatal("Clone must deep copy")
	}
}

func BenchmarkMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	ts := randSparse(rng, []int{1000, 1000, 1000}, 50000)
	const r = 10
	factors := []*mat.Dense{
		randFactor(rng, 1000, r), randFactor(rng, 1000, r), randFactor(rng, 1000, r),
	}
	scratch := make([]float64, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MTTKRP(ts, factors, 0, scratch)
	}
}

func BenchmarkKruskalAt(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 11))
	k := NewKruskal(randFactor(rng, 100, 10), randFactor(rng, 100, 10), randFactor(rng, 100, 10))
	idx := []int32{3, 50, 99}
	for i := 0; i < b.N; i++ {
		_ = k.At(idx)
	}
}

func TestDedupeKeepsFirst(t *testing.T) {
	ts := New(4, 4)
	ts.Append([]int32{1, 1}, 2)
	ts.Append([]int32{0, 3}, 5)
	ts.Append([]int32{1, 1}, 9) // duplicate: first value must win
	ts.Dedupe()
	if ts.NNZ() != 2 {
		t.Fatalf("NNZ after dedupe = %d", ts.NNZ())
	}
	for e := 0; e < ts.NNZ(); e++ {
		idx := ts.Index(e)
		if idx[0] == 1 && idx[1] == 1 && ts.Val[e] != 2 {
			t.Fatalf("Dedupe kept %v, want first value 2", ts.Val[e])
		}
	}
	empty := New(2, 2)
	if empty.Dedupe().NNZ() != 0 {
		t.Fatal("empty dedupe")
	}
}

// Property: after Dedupe all coordinates are unique and the tensor is valid.
func TestDedupeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		ts := New(5, 5, 5)
		idx := make([]int32, 3)
		for e := 0; e < 100; e++ {
			idx[0], idx[1], idx[2] = int32(rng.IntN(5)), int32(rng.IntN(5)), int32(rng.IntN(5))
			ts.Append(idx, rng.NormFloat64())
		}
		ts.Dedupe()
		if ts.Validate() != nil {
			return false
		}
		seen := map[[3]int32]bool{}
		for e := 0; e < ts.NNZ(); e++ {
			i := ts.Index(e)
			key := [3]int32{i[0], i[1], i[2]}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
