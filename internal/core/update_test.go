package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/sptensor"
)

// referenceIterate is the driver update as it was composed before the
// one-multiply form: explicit ηA−Y, the spectral B update written out with
// MulATB/Mul/AddScaled, H = A·F + E_(n)U, (H + ηB + Y)(F + cI)⁻¹ with two
// I×R×R products, and SubMat/NormF for the convergence values. It reads st
// and the supplied hs and returns what iterateWith + advance must
// reproduce, without touching st.
func referenceIterate(st *solverState, grams, hs []*mat.Dense) (next, bs, mult []*mat.Dense, maxDelta, consensus float64) {
	order := st.t.Order()
	next, bs, mult = make([]*mat.Dense, order), make([]*mat.Dense, order), make([]*mat.Dense, order)
	for n := 0; n < order; n++ {
		x := st.factors[n].Clone().Scale(st.eta)
		x.AddScaled(-1, st.mult[n])
		var b *mat.Dense
		if st.sp == nil || st.sp[n] == nil {
			b = x.Scale(1 / st.eta)
		} else {
			sp, alpha := st.sp[n], st.opt.AlphaFor(n)
			w := mat.MulATB(sp.Vectors, x)
			for i, lam := range sp.Values {
				scale := 1 / (st.eta + alpha*lam)
				if sp.Rank() < sp.Dim() {
					scale -= 1 / st.eta
				}
				mat.ScaleVec(scale, w.Row(i))
			}
			b = mat.Mul(sp.Vectors, w)
			if sp.Rank() < sp.Dim() {
				b.AddScaled(1/st.eta, x)
			}
		}
		if st.opt.NonNegative {
			for i, v := range b.Data() {
				if v < 0 {
					b.Data()[i] = 0
				}
			}
		}
		bs[n] = b
		fn := sptensor.GramProduct(grams, n)
		h := mat.AddMat(mat.Mul(st.factors[n], fn), hs[n])
		h.AddScaled(st.eta, b)
		h.AddScaled(1, st.mult[n])
		lhs := fn.Clone()
		for i := 0; i < lhs.Rows(); i++ {
			lhs.Add(i, i, st.opt.Lambda+st.eta)
		}
		inv, err := mat.InverseSPD(lhs)
		if err != nil {
			panic(err)
		}
		next[n] = mat.Mul(h, inv)
		d := mat.SubMat(next[n], st.factors[n]).NormF()
		maxDelta = math.Max(maxDelta, d*d)
		gap := mat.SubMat(b, next[n])
		consensus = math.Max(consensus, gap.NormF())
		mult[n] = st.mult[n].Clone().AddScaled(st.eta, gap)
	}
	return next, bs, mult, maxDelta, consensus
}

// matsClose requires ‖got−want‖_max ≤ tol·max(1, ‖want‖_max) per matrix.
func matsClose(t *testing.T, what string, got, want []*mat.Dense, tol float64) {
	t.Helper()
	for n := range want {
		scale := 1.0
		for _, v := range want[n].Data() {
			scale = math.Max(scale, math.Abs(v))
		}
		if d := mat.MaxAbsDiff(got[n], want[n]); !(d <= tol*scale) {
			t.Fatalf("%s[%d]: max |Δ| = %g, want ≤ %g", what, n, d, tol*scale)
		}
	}
}

func ringSimilarity(n int) *graph.Similarity {
	s := graph.NewSimilarity(n)
	for i := 0; i < n; i++ {
		s.AddEdge(i, (i+1)%n, 1)
		s.AddEdge(i, (i+3)%n, 0.5)
	}
	return s
}

// TestFusedUpdateMatchesReferenceComposition is the differential test for
// the one-multiply, workspace-based driver update: over several iterations
// of order-3 and order-4 problems — without spectra, with exact and with
// truncated spectra, NonNegative on and off — every quantity the update
// publishes (next A, B, the updated Y, both convergence values) must agree
// with the reference composition to 1e-12 relative.
func TestFusedUpdateMatchesReferenceComposition(t *testing.T) {
	const tol = 1e-12
	for _, dims := range [][]int{{23, 17, 9}, {12, 10, 9, 7}} {
		for _, simMode := range []string{"none", "exact", "truncated"} {
			for _, nonNeg := range []bool{false, true} {
				t.Run(fmt.Sprintf("order%d/%s/nonneg=%v", len(dims), simMode, nonNeg), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(31, uint64(len(dims))))
					ts := randomTensor(dims, 60*len(dims)*len(dims), rng)
					ts.Dedupe()
					opt := Options{Rank: 5, Seed: 4, NonNegative: nonNeg}
					var sims []*graph.Similarity
					if simMode != "none" {
						sims = make([]*graph.Similarity, len(dims))
						sims[0], sims[1] = ringSimilarity(dims[0]), ringSimilarity(dims[1])
					}
					if simMode == "truncated" {
						opt.TruncK = 6
					}
					opt = opt.withDefaults()
					sp, err := spectra(sims, opt.TruncK, opt.Seed)
					if err != nil {
						t.Fatal(err)
					}
					st := newSolverState(ts, sp, opt)
					for iter := 0; iter < 4; iter++ {
						grams := make([]*mat.Dense, ts.Order())
						for n, f := range st.factors {
							grams[n] = mat.Gram(f)
						}
						hs, _ := naiveStageMTTKRP(ts, st.factors)
						wantNext, wantBs, wantMult, wantDelta, wantCons := referenceIterate(st, grams, hs)
						next, bs := st.iterateWith(grams, hs)
						delta := st.advance(next, bs)
						matsClose(t, "next", next, wantNext, tol)
						matsClose(t, "bs", bs, wantBs, tol)
						matsClose(t, "mult", st.mult, wantMult, tol)
						if !relClose(delta, wantDelta, 1e-10) || !relClose(st.consensus, wantCons, 1e-10) {
							t.Fatalf("iter %d: delta %g (want %g), consensus %g (want %g)", iter, delta, wantDelta, st.consensus, wantCons)
						}
					}
				})
			}
		}
	}
}

// TestDriverUpdateAllocatesOnlyPublishedMatrices is the allocation budget of
// one driver update (iterateWith + advance): the only I-sized
// allocations are the next and bs matrices it publishes. The byte budget is
// those matrices plus a fixed allowance for the R×R and K×R pieces (Gram
// products, Cholesky factor and inverse, the eigenbasis coefficients); the
// object count must not depend on I at all.
func TestDriverUpdateAllocatesOnlyPublishedMatrices(t *testing.T) {
	const rank = 8
	measure := func(dims []int) (objects int, bytes, published uint64) {
		rng := rand.New(rand.NewPCG(7, 8))
		ts := randomTensor(dims, 2000, rng)
		ts.Dedupe()
		sims := make([]*graph.Similarity, len(dims))
		sims[0] = ringSimilarity(dims[0])
		opt := Options{Rank: rank, Seed: 2, TruncK: 10}.withDefaults()
		sp, err := spectra(sims, opt.TruncK, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		st := newSolverState(ts, sp, opt)
		grams := make([]*mat.Dense, len(dims))
		for n, f := range st.factors {
			grams[n] = mat.Gram(f)
			published += 2 * uint64(dims[n]) * rank * 8
		}
		hs, _ := naiveStageMTTKRP(ts, st.factors)
		step := func() {
			next, bs := st.iterateWith(grams, hs)
			st.advance(next, bs)
		}
		objects = int(testing.AllocsPerRun(5, step))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		return objects, after.TotalAlloc - before.TotalAlloc, published
	}
	smallN, _, _ := measure([]int{300, 250, 40})
	largeN, largeBytes, published := measure([]int{3000, 2500, 40})
	if smallN != largeN {
		t.Errorf("driver update allocates %d objects at I=300 and %d at I=3000: the count must not depend on I", smallN, largeN)
	}
	// Large allocations round up to whole pages; the remainder is R×R work.
	if slack := uint64(64 << 10); largeBytes > published+slack {
		t.Errorf("driver update allocated %d bytes; published next/bs are %d (+%d allowed)", largeBytes, published, slack)
	}
}

// residualReferenceSolve is the serial solver as it was composed before it
// became the whole-tensor block of the fused kernel, kept as the independent
// reference (DESIGN.md §3): every iteration rebuilds the residual tensor with
// sptensor.Residual and walks it once per mode with sptensor.MTTKRP
// (naiveStageMTTKRP), feeds those H_n to the shared driver update, and reads
// the training error off a second residual tensor at the updated factors.
func residualReferenceSolve(t *testing.T, ts *sptensor.Tensor, sims []*graph.Similarity, opt Options) (st *solverState, rmse []float64) {
	t.Helper()
	opt = opt.withDefaults()
	sp, err := spectra(sims, opt.TruncK, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st = newSolverState(ts, sp, opt)
	for ; st.iter < opt.MaxIter; st.iter++ {
		grams := make([]*mat.Dense, ts.Order())
		for n, f := range st.factors {
			grams[n] = mat.Gram(f)
		}
		hs, _ := naiveStageMTTKRP(ts, st.factors)
		st.advance(st.iterateWith(grams, hs))
		resid := sptensor.Residual(ts, sptensor.NewKruskal(st.factors...))
		rmse = append(rmse, resid.NormF()/math.Sqrt(float64(ts.NNZ())))
	}
	return st, rmse
}

// TestSerialMatchesResidualReference holds Complete — one fused-kernel call
// per iteration, E never stored — to the Residual + N×MTTKRP composition it
// replaced: over six iterations of order-3 and order-4 problems, with and
// without similarities, NonNegative on and off, A, B, Y and the training
// error agree to 1e-10 relative (the two sum the same terms in different
// orders: the block's mode-major order against the COO's).
func TestSerialMatchesResidualReference(t *testing.T) {
	const tol = 1e-10
	for _, dims := range [][]int{{23, 17, 9}, {12, 10, 9, 7}} {
		for _, withSims := range []bool{false, true} {
			for _, nonNeg := range []bool{false, true} {
				t.Run(fmt.Sprintf("order%d/sims=%v/nonneg=%v", len(dims), withSims, nonNeg), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(41, uint64(len(dims))))
					ts := randomTensor(dims, 60*len(dims)*len(dims), rng)
					ts.Dedupe()
					var sims []*graph.Similarity
					if withSims {
						sims = make([]*graph.Similarity, len(dims))
						sims[0], sims[1] = ringSimilarity(dims[0]), ringSimilarity(dims[1])
					}
					dir := t.TempDir()
					opt := Options{Rank: 5, Seed: 4, MaxIter: 6, Tol: -1, NonNegative: nonNeg,
						CheckpointEvery: 6, CheckpointDir: dir}
					got, err := Complete(ts, sims, opt)
					if err != nil {
						t.Fatal(err)
					}
					ck, err := ReadCheckpoint(CheckpointPath(dir)) // Y is not in the Result
					if err != nil {
						t.Fatal(err)
					}
					opt.CheckpointEvery = 0
					want, wantRMSE := residualReferenceSolve(t, ts, sims, opt)
					matsClose(t, "A", got.Model.Factors, want.factors, tol)
					matsClose(t, "B", got.Aux, want.aux, tol)
					matsClose(t, "Y", ck.Duals, want.mult, tol)
					if len(got.Trace) != len(wantRMSE) {
						t.Fatalf("trace has %d points, reference %d", len(got.Trace), len(wantRMSE))
					}
					for i, p := range got.Trace {
						if !relClose(p.TrainRMSE, wantRMSE[i], tol) {
							t.Fatalf("iter %d: TrainRMSE %v, reference %v", i, p.TrainRMSE, wantRMSE[i])
						}
					}
				})
			}
		}
	}
}

// TestNewSolverStateBuildsNoResidual: set-up builds the dense ADMM state and
// nothing proportional to nnz, and the serial solver's first iteration is one
// driver update from the H_n of Residual(t, initial model).
func TestNewSolverStateBuildsNoResidual(t *testing.T) {
	dims := []int{400, 300, 200}
	rng := rand.New(rand.NewPCG(17, 18))
	ts := randomTensor(dims, 60_000, rng).Dedupe()
	opt := Options{Rank: 4, Seed: 3, MaxIter: 1, Tol: -1}.withDefaults()
	dense := uint64(0)
	for _, d := range dims {
		dense += 4 * uint64(d*opt.Rank) * 8 // A, B, Y and the update workspace
	}
	if tensor := uint64(ts.NNZ()) * 20; tensor < 8*dense {
		t.Fatalf("tensor is %d B against %d B of dense state: too small to tell a copy of it", tensor, dense)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	newSolverState(ts, nil, opt)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > dense+dense/4 {
		t.Errorf("newSolverState allocated %d B, the dense state it builds is %d B: something the size of the tensor (%d B) was built with it", got, dense, ts.NNZ()*20)
	}

	want, _ := residualReferenceSolve(t, ts, nil, opt)
	res, err := Complete(ts, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Summation order is the block's, not the COO's: a tolerance, not bits.
	matsClose(t, "Complete's first iteration vs one update from Residual(t, initial model)", res.Model.Factors, want.factors, 1e-10)
}
