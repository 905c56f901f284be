package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// referenceIterate is the driver update as it was composed before the
// one-multiply form: explicit ηA−Y; the B-step written out densely, with
// the signless Laplacian D + S = 2·diag(L) − L materialized from L.Dense and
// multiplied into the previous B by mat.Mul instead of walking the CSR rows;
// H = A·F + E_(n)U, (H + ηB + Y)(F + cI)⁻¹ with two I×R×R products, and
// SubMat/NormF for the convergence values. It reads st and the supplied hs
// and returns what update must reproduce, without touching st.
func referenceIterate(st *solverState, grams, hs []*mat.Dense) (next, bs, mult []*mat.Dense, maxDelta, consensus float64) {
	order := st.t.Order()
	next, bs, mult = make([]*mat.Dense, order), make([]*mat.Dense, order), make([]*mat.Dense, order)
	for n := 0; n < order; n++ {
		x := st.factors[n].Clone().Scale(st.eta)
		x.AddScaled(-1, st.mult[n])
		var b *mat.Dense
		if st.lap == nil || st.lap[n] == nil {
			b = x.Scale(1 / st.eta)
		} else {
			l, alpha := st.lap[n].Dense(), st.opt.AlphaFor(n)
			signless := l.Clone().Scale(-1)
			for i := 0; i < l.Rows(); i++ {
				signless.Add(i, i, 2*l.At(i, i))
			}
			b = x.AddScaled(alpha, mat.Mul(signless, st.aux[n]))
			for i := 0; i < b.Rows(); i++ {
				mat.ScaleVec(1/(st.eta+2*alpha*l.At(i, i)), b.Row(i))
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

// sweepUpdate is the driver update as separate whole-matrix sweeps, the
// composition the one-pass update replaced and is held to bit for bit: the
// Grams by mat.MulATB; per mode the whole B-step into a new matrix; the
// right-hand side H + ηB + Y − cA into an I×R workspace; A + W(F + cI)⁻¹ by
// mat.MulAddInto into a new matrix; then, once every mode is done, one pass
// per mode for ‖ΔA‖², ‖B − A‖² and Y. It commits into st exactly as update
// does, apart from A and B living in new matrices instead of the ping-pong
// pairs, and leaves st.gram alone. Its products are rounded before they are
// added, as the pass's are, so it holds on every target.
func sweepUpdate(st *solverState, hs []*mat.Dense) float64 {
	order := st.t.Order()
	grams := make([]*mat.Dense, order)
	for n, f := range st.factors {
		grams[n] = mat.MulATB(f, f)
	}
	next, bs := make([]*mat.Dense, order), make([]*mat.Dense, order)
	for n := 0; n < order; n++ {
		eta, c := st.eta, st.opt.Lambda+st.eta
		a := st.factors[n].Data()
		b := mat.NewDense(st.factors[n].Dims())
		bd, y := b.Data(), st.mult[n].Data()
		if st.lap != nil && st.lap[n] != nil {
			st.lap[n].BStep(bd, st.aux[n].Data(), a, y, 0, st.factors[n].Rows(), st.opt.Rank, eta, st.opt.AlphaFor(n), st.opt.NonNegative)
		} else {
			for i, av := range a {
				v := float64(eta*av) - y[i]
				bd[i] = v * (1 / eta)
				if st.opt.NonNegative && bd[i] < 0 {
					bd[i] = 0
				}
			}
		}
		bs[n] = b
		lhs := sptensor.GramProduct(grams, n)
		for i := 0; i < lhs.Rows(); i++ {
			lhs.Add(i, i, c)
		}
		inv, err := mat.InverseSPD(lhs)
		if err != nil {
			panic(err)
		}
		work := mat.NewDense(st.factors[n].Dims())
		w, h := work.Data(), hs[n].Data()
		for i, av := range a {
			w[i] = h[i] + float64(eta*bd[i]) + y[i] - float64(c*av)
		}
		next[n] = mat.NewDense(st.factors[n].Dims())
		mat.MulAddInto(next[n], 1, st.factors[n], work, inv)
	}
	var maxDelta, consensus float64
	for n := range st.factors {
		nx := next[n].Data()
		a, b, y := st.factors[n].Data(), bs[n].Data(), st.mult[n].Data()
		var delta2, gap2 float64
		for i, nv := range nx {
			d := nv - a[i]
			delta2 += float64(d * d)
			gap := b[i] - nv
			gap2 += float64(gap * gap)
			y[i] += float64(st.eta * gap)
		}
		maxDelta = math.Max(maxDelta, delta2)
		consensus = math.Max(consensus, math.Sqrt(gap2))
		st.factors[n] = next[n]
		st.aux[n] = bs[n]
	}
	st.eta = math.Min(st.opt.Rho*st.eta, st.opt.EtaMax)
	st.consensus = consensus
	return maxDelta
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
// the one-multiply, one-pass driver update: over several iterations of
// order-3 and order-4 problems — without similarities, with them, and with
// them under a TruncK the solver must ignore, NonNegative on and off — every
// quantity the update publishes (next A, B, the updated Y, both convergence
// values) must agree with the reference composition to 1e-12 relative.
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
					st := newSolverState(ts, laplacians(sims), opt)
					for iter := 0; iter < 4; iter++ {
						grams := make([]*mat.Dense, ts.Order())
						for n, f := range st.factors {
							grams[n] = mat.MulATB(f, f)
						}
						hs, _ := naiveStageMTTKRP(ts, st.factors)
						wantNext, wantBs, wantMult, wantDelta, wantCons := referenceIterate(st, grams, hs)
						delta := mustUpdate(t, st, hs)
						matsClose(t, "next", st.factors, wantNext, tol)
						matsClose(t, "bs", st.aux, wantBs, tol)
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

// TestFusedUpdateMatchesSweepsBits holds the one-pass update to the separate
// sweeps it replaced (sweepUpdate, run on the Go bodies), Float64bits-equal
// in A, B, Y, both convergence values and the Grams it carries into the next
// iteration, over four iterations, with each body set of the pass in turn
// (the Go bodies, and the AVX2 ones where the host has them): order 3 and 4,
// with and without similarities, NonNegative on and off, and on mode lengths
// that straddle the tile — below one tile, one tile + 1, every I mod 4 in
// {1, 2, 3}, and a length-1 mode.
func TestFusedUpdateMatchesSweepsBits(t *testing.T) {
	const rank = 5
	tile := driverTileRows(rank)
	for _, dims := range [][]int{{23, 17, 9}, {12, 10, 9, 7}, {tile + 1, tile - 2, 1}, {2*tile + 3, tile + 2, 5, 1}} {
		for _, withSims := range []bool{false, true} {
			for _, nonNeg := range []bool{false, true} {
				t.Run(fmt.Sprintf("dims=%v/sims=%v/nonneg=%v", dims, withSims, nonNeg), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(37, uint64(len(dims))))
					ts := randomTensor(dims, 40*(dims[0]+dims[1]), rng).Dedupe()
					var sims []*graph.Similarity
					if withSims {
						sims = make([]*graph.Similarity, len(dims))
						sims[0], sims[1] = ringSimilarity(dims[0]), ringSimilarity(dims[1])
					}
					opt := Options{Rank: rank, Seed: 4, NonNegative: nonNeg}.withDefaults()
					for _, body := range driverBodyNames() {
						st := newSolverState(ts, laplacians(sims), opt)
						ref := newSolverState(ts, laplacians(sims), opt)
						for iter := 0; iter < 4; iter++ {
							hs, _ := naiveStageMTTKRP(ts, st.factors)
							undo := setDriverBodies(body == "avx2")
							delta := mustUpdate(t, st, hs)
							undo()
							undo = setDriverBodies(false)
							wantDelta := sweepUpdate(ref, hs)
							wantGrams := make([]*mat.Dense, len(ref.factors))
							for n, f := range ref.factors {
								wantGrams[n] = mat.MulATB(f, f)
							}
							undo()
							what := fmt.Sprintf("%s bodies, iter %d", body, iter)
							assertBitIdentical(t, what+" A", ref.factors, st.factors)
							assertBitIdentical(t, what+" B", ref.aux, st.aux)
							assertBitIdentical(t, what+" Y", ref.mult, st.mult)
							assertBitIdentical(t, what+" Gram", wantGrams, st.gram)
							if math.Float64bits(delta) != math.Float64bits(wantDelta) || math.Float64bits(st.consensus) != math.Float64bits(ref.consensus) {
								t.Fatalf("%s: delta %v (sweeps %v), consensus %v (sweeps %v)", what, delta, wantDelta, st.consensus, ref.consensus)
							}
						}
					}
				})
			}
		}
	}
}

// TestDriverUpdateAllocatesNothingISized is the allocation budget of one warm
// driver update: nothing I-sized. A and Y are updated in place, and so is B
// on a mode without a similarity; a mode with one ping-pongs B between two
// solver-owned buffers. The Grams alternate between two R×R sets, the
// right-hand side and the new rows go through two tile buffers, and the
// B-step allocates nothing. So after two warm updates the solver holds A, B
// and Y per mode and a spare B only on the similarity mode, and what update
// allocates is R×R work per mode — Gram products, the normal matrix, its
// Cholesky factor and inverse: the byte budget is a fixed allowance of R×R
// matrices per mode, the object count must not depend on I at all, and the
// same budget holds for either body set.
func TestDriverUpdateAllocatesNothingISized(t *testing.T) {
	const rank = 8
	measure := func(dims []int) (objects int, bytes uint64) {
		rng := rand.New(rand.NewPCG(7, 8))
		ts := randomTensor(dims, 2000, rng)
		ts.Dedupe()
		sims := make([]*graph.Similarity, len(dims))
		sims[0] = ringSimilarity(dims[0])
		opt := Options{Rank: rank, Seed: 2}.withDefaults()
		st := newSolverState(ts, laplacians(sims), opt)
		hs, _ := naiveStageMTTKRP(ts, st.factors)
		hv := wholeH(hs)
		step := func() {
			if _, err := st.update(hv); err != nil {
				t.Fatal(err)
			}
		}
		step() // the first update computes the Grams
		step()
		if len(st.factors) != len(dims) || len(st.aux) != len(dims) || len(st.mult) != len(dims) {
			t.Fatalf("the solver holds %d A, %d B and %d Y for %d modes", len(st.factors), len(st.aux), len(st.mult), len(dims))
		}
		for n, s := range st.spare {
			if (s != nil) != (sims[n] != nil) {
				t.Errorf("mode %d (similarity: %v) holds a spare B: %v", n, sims[n] != nil, s != nil)
			}
		}
		objects = int(testing.AllocsPerRun(5, step))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		return objects, after.TotalAlloc - before.TotalAlloc
	}
	for _, body := range driverBodyNames() {
		undo := setDriverBodies(body == "avx2")
		dims := []int{3000, 2500, 40}
		smallN, _ := measure([]int{300, 250, 40})
		largeN, largeBytes := measure(dims)
		undo()
		if smallN != largeN {
			t.Errorf("%s bodies: driver update allocates %d objects at I=300 and %d at I=3000: the count must not depend on I", body, smallN, largeN)
		}
		// Eight R×R matrices a mode, headers included, is the allowance: a
		// single I×R allocation at I = 2 500 is 160 000 bytes.
		if slack := uint64(8 * len(dims) * (rank*rank*8 + 64)); largeBytes > slack {
			t.Errorf("%s bodies: driver update allocated %d bytes, more than the %d of its R×R work: something I-sized was allocated", body, largeBytes, slack)
		}
		t.Logf("%s bodies: %d objects, %d bytes per warm update", body, largeN, largeBytes)
	}
}

// residualReferenceSolve is the serial solver as it was composed before it
// became the whole-tensor block of the fused kernel, kept as the independent
// reference (DESIGN.md §3): every iteration rebuilds the residual tensor with
// sptensor.Residual and walks it once per mode with sptensor.MTTKRP
// (naiveStageMTTKRP), feeds those H_n to the dense reference composition of
// the driver update (referenceIterate, its own B-step included), and reads
// the training error off a second residual tensor at the updated factors.
// Only the initial state is shared with the solver (newSolverState).
func residualReferenceSolve(t *testing.T, ts *sptensor.Tensor, sims []*graph.Similarity, opt Options) (st *solverState, rmse []float64) {
	t.Helper()
	opt = opt.withDefaults()
	st = newSolverState(ts, laplacians(sims), opt)
	for ; st.iter < opt.MaxIter; st.iter++ {
		grams := make([]*mat.Dense, ts.Order())
		for n, f := range st.factors {
			grams[n] = mat.Gram(f)
		}
		hs, _ := naiveStageMTTKRP(ts, st.factors)
		st.factors, st.aux, st.mult, _, _ = referenceIterate(st, grams, hs)
		st.eta = math.Min(opt.Rho*st.eta, opt.EtaMax)
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
		dense += 3 * uint64(d*opt.Rank) * 8 // A, B and Y: no mode has a similarity
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

// TestSerialFixedPointSolvesBUpdate: the B-step is one damped-Jacobi step per
// iteration, not an exact solve, but at the ADMM fixed point B stops moving
// and the step's fixed point is Algorithm 1 line 4 itself. A serial solve run
// to Tol 1e-12 must leave ‖(ηI + αL)B − (ηA − Y)‖ / ‖ηA − Y‖ ≤ 1e-6 on every
// mode with a similarity; it leaves 1.1e-7 to 2.7e-7. The solver before the
// step, with its K = 20 truncated spectral update, left the same problem at
// 4.5e-4 to 5.5e-4, and with TruncK 0 (the exact dense decomposition, never
// run at solve-highdim's size) at 1.1e-7 to 2.6e-7.
func TestSerialFixedPointSolvesBUpdate(t *testing.T) {
	d := synth.LinearFactorDataset([]int{60, 50, 40}, 2, 6000, 23)
	opt := Options{Rank: 2, Lambda: 1, MaxIter: 3000, Tol: 1e-12, Seed: 24}
	res, err := Complete(d.Tensor, d.Sims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence in %d iterations", res.Iters)
	}
	// Rerun to the same iteration with a checkpoint there: Y is not in the
	// Result, and the solve is deterministic.
	dir := t.TempDir()
	opt.MaxIter, opt.CheckpointEvery, opt.CheckpointDir = res.Iters, res.Iters, dir
	if _, err := Complete(d.Tensor, d.Sims, opt); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "rerun factors", ck.Factors, res.Model.Factors)
	opt = opt.withDefaults()
	for n, s := range d.Sims {
		x := ck.Factors[n].Clone().Scale(ck.Eta).AddScaled(-1, ck.Duals[n])
		lhs := mat.Mul(graph.NewLaplacian(s).Dense(), ck.Aux[n]).Scale(opt.AlphaFor(n)).AddScaled(ck.Eta, ck.Aux[n])
		rel := mat.SubMat(lhs, x).NormF() / x.NormF()
		if !(rel <= 1e-6) {
			t.Errorf("mode %d: ‖(ηI + αL)B − (ηA − Y)‖ / ‖ηA − Y‖ = %.3g after %d iterations, want ≤ 1e-6", n, rel, res.Iters)
		}
		t.Logf("mode %d: relative B-update residual %.3g after %d iterations", n, rel, res.Iters)
	}
}

// communitySimilarity links each of n objects to about deg others of its
// community, the communities drawn uniformly from blocks: the facebook-sim
// similarity's shape, built as BenchmarkLaplacianBStep builds its graphs.
func communitySimilarity(n, blocks, deg int, rng *rand.Rand) *graph.Similarity {
	members := make([][]int, blocks)
	for i := 0; i < n; i++ {
		b := rng.IntN(blocks)
		members[b] = append(members[b], i)
	}
	s := graph.NewSimilarity(n)
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

// BenchmarkDriverUpdate times one driver update at solve-highdim's shape:
// 25 000 × 25 000 × 5 at R = 16, with 12-community similarities on the two
// long modes. The state is one update past initialization and is restored
// before every op, outside the timer, so every op does the same work. The
// /ref sibling runs the same pass on the Go bodies of every loop (its own,
// mat's and graph's): the ledger gates the AVX2 pass on its share of that
// (BENCH_driver.json).
func BenchmarkDriverUpdate(b *testing.B) {
	const rank = 16
	dims := []int{25_000, 25_000, 5}
	rng := rand.New(rand.NewPCG(17, 17))
	sims := []*graph.Similarity{communitySimilarity(dims[0], 12, 3, rng), communitySimilarity(dims[1], 12, 3, rng), nil}
	opt := Options{Rank: rank, Seed: 2}.withDefaults()
	// The update reads only the tensor's shape.
	st := newSolverState(sptensor.New(dims...), laplacians(sims), opt)
	hs := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		hs[n] = mat.NewDense(d, rank)
		for i := range hs[n].Data() {
			hs[n].Data()[i] = rng.NormFloat64()
		}
	}
	mustUpdate(b, st, hs)
	hv := wholeH(hs)
	aux, spare := slices.Clone(st.aux), slices.Clone(st.spare)
	gram, nextGram, eta := st.gram, st.nextGram, st.eta
	// saved holds the values of A, B and Y per mode.
	saved := make([][3]*mat.Dense, len(dims))
	for n := range dims {
		saved[n] = [3]*mat.Dense{st.factors[n].Clone(), st.aux[n].Clone(), st.mult[n].Clone()}
	}
	// restore undoes an op. The update writes A, Y and a free mode's B in
	// place, a similarity mode's next B into spare, nextGram, and the slots
	// of these slices: the slots go back, then the values of A, B and Y.
	restore := func() {
		copy(st.aux, aux)
		copy(st.spare, spare)
		st.gram, st.nextGram, st.eta = gram, nextGram, eta
		for n, m := range saved {
			for i, dst := range []*mat.Dense{st.factors[n], st.aux[n], st.mult[n]} {
				copy(dst.Data(), m[i].Data())
			}
		}
	}
	for _, name := range []string{"highdim", "highdim/ref"} {
		b.Run(name, func(b *testing.B) {
			if name == "highdim/ref" {
				usePortableDriver(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				if _, err := st.update(hv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
