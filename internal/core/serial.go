package core

import (
	"fmt"
	"math"
	"time"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/sptensor"
)

// Complete runs the CP-based tensor completion ADMM (Algorithm 1) on a
// single machine. It is DisTenC at P = 1 without the engine: the whole tensor
// is one mode-major block of the fused residual + MTTKRP kernel (§III-C/D —
// E is never stored), and the driver update is the one CompleteDistributed
// runs (the damped-Jacobi B-step; Gram products, Eq. 12; the Eq. 16 factor
// update). Factors and Aux equal CompleteDistributed's at Partitions: 1 bit
// for bit; Trace[i].TrainRMSE is the post-update value, one iteration ahead
// of the distributed trace.
//
// sims may be nil (no auxiliary information) or hold one similarity per mode
// with nil entries for modes without auxiliary data.
func Complete(t *sptensor.Tensor, sims []*graph.Similarity, opt Options) (*Result, error) {
	return complete(t, sims, opt, nil)
}

// Resume continues an interrupted Complete run from the latest checkpoint in
// opt.CheckpointDir (see Options.CheckpointEvery). The restored state is
// bit-identical to the state the writing run held, and the solver arithmetic
// is deterministic, so the resumed run's factors match the uninterrupted
// run's exactly. Returns ErrNoCheckpoint when the directory holds none.
func Resume(t *sptensor.Tensor, sims []*graph.Similarity, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	ck, err := loadCheckpoint(opt.CheckpointDir, t, opt)
	if err != nil {
		return nil, err
	}
	return complete(t, sims, opt, ck)
}

// complete is the shared serial loop; a non-nil ck replaces the fresh
// initialization with checkpointed state and starts at its iteration.
func complete(t *sptensor.Tensor, sims []*graph.Similarity, opt Options, ck *checkpointState) (*Result, error) {
	opt = opt.withDefaults()
	if err := validate(t, sims); err != nil {
		return nil, err
	}
	if err := validateOptions(opt); err != nil {
		return nil, err
	}
	st := newSolverState(t, laplacians(sims), opt)
	if ck != nil {
		st.restore(ck)
	}
	// The whole tensor as one block: global row ids are the local ids of a
	// full-height slab, so the kernel accumulates straight into the H_n.
	blk := &TensorBlock{Order: t.Order(), Idx: t.Idx, Val: t.Val}
	sortEntriesModeMajor(blk) // copies when it has to reorder; the kernel only reads
	acc := make([][]float64, t.Order())
	hv := make([][]HRows, t.Order()) // each H_n one full-height run
	for n, d := range t.Dims {
		acc[n] = make([]float64, d*opt.Rank)
		hv[n] = []HRows{{Mode: int16(n), Vals: acc[n]}}
	}
	scratch := newFusedScratch(t.Order(), opt.Rank)
	// mttkrp fills every H_n = E_(n)·U(n) at the current factors and returns
	// ‖E‖²_F — the serial counterpart of DisTenC's map + reduce stages.
	mttkrp := func() float64 {
		for _, h := range acc {
			clear(h)
		}
		return fusedBlockMTTKRP(blk, blk.Idx, st.factors, opt.Rank, acc, scratch)
	}
	mttkrp()
	start := time.Now()
	for ; st.iter < opt.MaxIter; st.iter++ {
		iterStart := time.Now()
		delta, err := st.update(hv)
		if err != nil {
			return nil, err
		}
		driver := time.Since(iterStart)
		// The checkpoint write is neither kernel nor driver algebra: like the
		// distributed loop's "checkpoint" span it stays out of both phases.
		if err := st.maybeCheckpoint(); err != nil {
			return nil, err
		}
		// One kernel call at A_{t+1} yields this iteration's training error
		// and the next iteration's H_n; it counts toward the MTTKRPMap phase
		// so the timing breakdown stays comparable across solvers.
		t0 := time.Now()
		residNorm2 := mttkrp()
		kernel := time.Since(t0)
		if err := st.checkResidual(residNorm2); err != nil {
			return nil, err
		}
		st.phases = append(st.phases, metrics.PhaseTimes{
			Iter:      st.iter,
			MTTKRPMap: kernel,
			Driver:    driver,
			Total:     time.Since(iterStart),
		})
		point := metrics.ConvergencePoint{
			Iter:      st.iter,
			Elapsed:   time.Since(start),
			TrainRMSE: trainRMSE(residNorm2, t.NNZ()),
			MaxDelta:  delta,
		}
		st.trace = append(st.trace, point)
		if opt.OnIteration != nil {
			opt.OnIteration(point)
		}
		if delta < st.opt.Tol {
			st.converged = true
			st.iter++
			break
		}
	}
	return st.result(start), nil
}

// solverState carries the ADMM variables shared by the serial solver and the
// driver side of DisTenC.
type solverState struct {
	t   *sptensor.Tensor
	opt Options
	lap []*graph.Laplacian // nil entries: modes without a similarity
	// factors are the A(n), updated in place: the kernel runs before the
	// update, and runStage returns only once every attempt it launched has
	// stopped reading them.
	factors []*mat.Dense
	aux     []*mat.Dense // B(n)
	mult    []*mat.Dense // Y(n), updated in place
	// spare[n] is what a similarity mode's B-step writes; it swaps with
	// aux[n] once the mode's pass is done. A free mode's step reads no B and
	// writes aux[n] in place: its spare[n] is nil.
	spare []*mat.Dense
	// gram[n] = A(n)ᵀA(n) at the current factors, nil until the first update
	// computes it. The pass accumulates the next iteration's into nextGram,
	// and the two sets swap when it commits: every mode's F_n reads the
	// iteration-t Grams of all the others.
	gram, nextGram []*mat.Dense
	// lhs, inv and chol are the R×R normal matrix F_n + (λ+η)I, its inverse
	// and its Cholesky factor, rewritten per mode.
	lhs, inv, chol *mat.Dense
	// w holds one tile of the right-hand side H + ηB + Y − cA, and nx the
	// tile's new rows of A until they are copied over the old ones.
	w, nx []float64
	eta   float64
	iter  int

	converged bool
	trace     metrics.Trace
	phases    metrics.PhaseBreakdown
}

func newSolverState(t *sptensor.Tensor, lap []*graph.Laplacian, opt Options) *solverState {
	st := &solverState{
		t:       t,
		opt:     opt,
		lap:     lap,
		factors: initFactors(t.Dims, opt.Rank, opt.Seed),
		eta:     opt.Eta0,
		w:       make([]float64, driverTileRows(opt.Rank)*opt.Rank),
		nx:      make([]float64, driverTileRows(opt.Rank)*opt.Rank),
		lhs:     mat.NewDense(opt.Rank, opt.Rank),
		inv:     mat.NewDense(opt.Rank, opt.Rank),
		chol:    mat.NewDense(opt.Rank, opt.Rank),
	}
	ApplyInitScale(st.factors, t, opt)
	st.aux = make([]*mat.Dense, t.Order())
	st.mult = make([]*mat.Dense, t.Order())
	st.spare = make([]*mat.Dense, t.Order())
	st.nextGram = make([]*mat.Dense, t.Order())
	for n, d := range t.Dims {
		// B₀ = A₀: the B-step starts from the consensus point. From B₀ = 0 it
		// would drag A toward zero when α·d_i outweighs η.
		st.aux[n] = st.factors[n].Clone()
		st.mult[n] = mat.NewDense(d, opt.Rank)
		if lap != nil && lap[n] != nil {
			st.spare[n] = mat.NewDense(d, opt.Rank)
		}
		st.nextGram[n] = mat.NewDense(opt.Rank, opt.Rank)
	}
	return st
}

// driverTileFloats bounds one I×R operand's share of a driver-pass tile at
// 4 KB: a tile's rows of A, Y, H, both Bs, w and the new A then fit a 32 KB
// L1d together from the B-step through the Gram.
const driverTileFloats = 512

// driverTileRows is the pass's tile height at rank r. It is a multiple of
// four, so only the last tile leaves single rows to the Gram's four-row
// folds.
func driverTileRows(r int) int { return max(4, driverTileFloats/r&^3) }

// update performs one Jacobi-style outer iteration, Algorithm 3 lines 7–14,
// and returns the convergence value max_n ‖A_{t+1}−A_t‖²_F. hv holds the
// kernel's H_n = E_(n)·U(n) at the current factors as MTTKRPStage returns
// it, and is only read. The residual E = Ω∗(T − [[A_{t+1}]]) is the next
// kernel call's, never stored (§III-D; see DESIGN.md on the Algorithm 3
// line-13 typo).
//
// Every mode's F_n comes from the iteration-t Grams (Eq. 12). Given the R×R
// (F_n + cI)⁻¹, c = λ+η, every other step is row-local, so a mode is one pass
// over its rows in tiles of driverTileRows. Per tile:
//   - the B-step on the tile's rows, from the previous B (auxRows);
//   - w = H + ηB + Y − cA (driverRHS, element-wise, so a run of H ending
//     inside the tile changes no bit), and per row the new row
//     A + w(F + cI)⁻¹ (mat.AxpyRows), the one-multiply form of Algorithm 3
//     line 11, A ← (A·F + H + ηB + Y)(F + cI)⁻¹ (DESIGN.md §5);
//   - ‖ΔA‖² accumulated, and Y ← Y + η(B − A) in place (line 12;
//     driverAdvance);
//   - the tile's new rows added into the next iteration's Gram, then copied
//     over the old ones.
//
// Row products do not change under tiling, and the sum and the Gram's row
// folds (mat.GramAddUpper) run through the tiles in ascending order. So the
// pass computes what separate whole-matrix sweeps compute, bit for bit. It
// ends by growing η (line 14; NextEta).
//
// The steps read only the tile's own rows of A and Y, so A and Y are updated
// in place (the new rows through the tile buffer nx), as is a free mode's B;
// so update allocates nothing I-sized. It returns an error naming the
// iteration and the mode when a Gram's diagonal is not finite, which a
// factor entry that is not finite (or whose square overflows) makes it: the
// solve has diverged.
func (st *solverState) update(hv [][]HRows) (float64, error) {
	rank := st.opt.Rank
	eta, c := st.eta, st.opt.Lambda+st.eta
	tile := driverTileRows(rank)
	if st.gram == nil {
		// The first update, or the first after a restore: every later one
		// carries the Grams over from the pass before it.
		st.gram = make([]*mat.Dense, len(st.factors))
		for n, f := range st.factors {
			st.gram[n] = mat.Gram(f)
			if err := st.checkGram(n, st.gram[n].Data()); err != nil {
				return 0, err
			}
		}
	}
	var maxDelta float64
	for n, cur := range st.factors {
		// F_n + (λ+η)I via the Hadamard-of-Grams identity (Eq. 12).
		sptensor.GramProductInto(st.lhs, st.gram, n)
		for i := 0; i < rank; i++ {
			st.lhs.Add(i, i, c)
		}
		if err := mat.InverseSPDInto(st.inv, st.lhs, st.chol); err != nil {
			// F + (λ+η)I is SPD by construction when the Grams are finite.
			return 0, fmt.Errorf("core: iteration %d, mode %d: normal-equation matrix not SPD: %w", st.iter, n, err)
		}
		inv := st.inv
		a := cur.Data()
		nb := st.aux[n] // the next B: in place on a mode without a similarity
		if st.spare[n] != nil {
			nb = st.spare[n]
		}
		b, y := nb.Data()[:len(a)], st.mult[n].Data()[:len(a)]
		runs := hv[n]
		g := st.nextGram[n].Data()
		clear(g)
		var delta2 float64
		for lo := 0; lo < cur.Rows(); lo += tile {
			hi := min(lo+tile, cur.Rows())
			st.auxRows(n, lo, hi)
			t0, t1 := lo*rank, hi*rank
			w, nx := st.w[:t1-t0], st.nx[:t1-t0]
			for r := lo; r < hi; {
				for runs[0].Lo+len(runs[0].Vals)/rank <= r {
					runs = runs[1:]
				}
				e := min(hi, runs[0].Lo+len(runs[0].Vals)/rank)
				r0, r1 := r*rank, e*rank
				driverRHS(w[r0-t0:r1-t0], runs[0].Vals[r0-runs[0].Lo*rank:], b[r0:], y[r0:], a[r0:], eta, c)
				r = e
			}
			copy(nx, a[t0:t1])
			for i := 0; i < len(w); i += rank {
				mat.AxpyRows(nx[i:i+rank], w[i:i+rank], inv.Data())
			}
			delta2 = driverAdvance(nx, a[t0:t1], b[t0:t1], y[t0:t1], eta, delta2)
			mat.GramAddUpper(g, nx, rank)
			copy(a[t0:t1], nx)
		}
		mat.MirrorUpper(g, rank)
		if err := st.checkGram(n, g); err != nil {
			return 0, err
		}
		maxDelta = math.Max(maxDelta, delta2)
		if st.spare[n] != nil {
			st.aux[n], st.spare[n] = st.spare[n], st.aux[n]
		}
	}
	st.gram, st.nextGram = st.nextGram, st.gram
	st.eta = NextEta(st.eta)
	return maxDelta, nil
}

// checkGram returns an error naming the iteration and mode n when a diagonal
// entry of n's r×r Gram g is not finite.
func (st *solverState) checkGram(n int, g []float64) error {
	r := st.opt.Rank
	for i := 0; i < r; i++ {
		if v := g[i*r+i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: iteration %d, mode %d: the factors diverged: Gram diagonal %d is %v", st.iter, n, i, v)
		}
	}
	return nil
}

// checkResidual returns an error naming the iteration when the kernel's
// ‖E‖²_F is not finite.
func (st *solverState) checkResidual(residNorm2 float64) error {
	if math.IsNaN(residNorm2) || math.IsInf(residNorm2, 0) {
		return fmt.Errorf("core: iteration %d: the solve diverged: training ‖E‖² is %v", st.iter, residNorm2)
	}
	return nil
}

// driverRHS sets w = H + ηB + Y − cA element by element; h, b, y and a hold
// at least len(w) elements.
func driverRHS(w, h, b, y, a []float64, eta, c float64) {
	h, b, y, a = h[:len(w)], b[:len(w)], y[:len(w)], a[:len(w)]
	//bce:begin
	for i, av := range a {
		w[i] = h[i] + float64(eta*b[i]) + y[i] - float64(c*av)
	}
	//bce:end
}

// driverAdvance adds ‖A' − A‖² over the elements of nx (A') to delta2, one
// element at a time in ascending order, and steps Y ← Y + η(B − A'); a, b
// and y hold at least len(nx) elements.
func driverAdvance(nx, a, b, y []float64, eta, delta2 float64) float64 {
	a, b, y = a[:len(nx)], b[:len(nx)], y[:len(nx)]
	//bce:begin
	for i, nv := range nx {
		d := nv - a[i]
		delta2 += float64(d * d)
		y[i] += float64(eta * (b[i] - nv))
	}
	//bce:end
	return delta2
}

// driverFreeB sets B = (ηA − Y)·(1/η), negatives clamped to zero under
// nonNeg: the B-step of a mode without a similarity. a and y hold at least
// len(b) elements.
func driverFreeB(b, a, y []float64, eta float64, nonNeg bool) {
	a, y = a[:len(b)], y[:len(b)]
	inv := 1 / eta
	//bce:begin
	for i, av := range a {
		v := (float64(eta*av) - y[i]) * inv
		if nonNeg && v < 0 {
			v = 0
		}
		b[i] = v
	}
	//bce:end
}

// auxRows writes rows [lo, hi) of mode n's next B from x = ηA(n) − Y(n): on a
// mode with a similarity, one damped-Jacobi step from the previous B towards
// (ηI + αL_n)⁻¹·x (graph.Laplacian.BStep) into spare[n]; on a mode without
// one, x/η exactly (driverFreeB) into aux[n] in place; projected onto B ≥ 0
// under NonNegative.
func (st *solverState) auxRows(n, lo, hi int) {
	rank, eta := st.opt.Rank, st.eta
	a, y := st.factors[n].Data(), st.mult[n].Data()
	if b := st.spare[n]; b != nil {
		st.lap[n].BStep(b.Data(), st.aux[n].Data(), a, y, lo, hi, rank, eta, st.opt.Alpha, st.opt.NonNegative)
		return
	}
	driverFreeB(st.aux[n].Data()[lo*rank:hi*rank], a[lo*rank:], y[lo*rank:], eta, st.opt.NonNegative)
}

// ApplyInitScale rescales the random initialization so the initial model's
// mean prediction over the observed cells matches the observed mean (unless
// opt.InitScale pins an explicit scale). With nearly all cells missing, the
// EM-style fill-in otherwise spends many iterations just finding the data's
// scale. Exported so every baseline starts from the identical point. Both
// sums run in storage order (DESIGN.md §5), the predictions a chunk at a time
// from the batched evaluator, bit for bit a loop over Kruskal.At.
func ApplyInitScale(factors []*mat.Dense, t *sptensor.Tensor, opt Options) {
	scale := opt.InitScale
	if scale == 0 {
		if t.NNZ() == 0 {
			return
		}
		var predSum, obsSum float64
		sptensor.NewKruskal(factors...).AtEntries(t, func(e0 int, preds []float64) {
			obs := t.Val[e0 : e0+len(preds)]
			for i, p := range preds {
				predSum += p
				obsSum += obs[i]
			}
		})
		if predSum == 0 || obsSum/predSum <= 0 {
			return
		}
		scale = math.Pow(obsSum/predSum, 1/float64(len(factors)))
	}
	if scale == 1 {
		return
	}
	for _, f := range factors {
		f.Scale(scale)
	}
}

// trainRMSE turns the kernel's ‖E‖²_F into the root-mean-square training
// error over nnz observed cells.
func trainRMSE(residNorm2 float64, nnz int) float64 {
	return math.Sqrt(residNorm2 / float64(max(1, nnz)))
}

func (st *solverState) result(start time.Time) *Result {
	return &Result{
		Model:      sptensor.NewKruskal(st.factors...),
		Aux:        st.aux,
		Iters:      st.iter,
		Converged:  st.converged,
		Trace:      st.trace,
		Phases:     st.phases,
		Elapsed:    time.Since(start),
		GraphNotes: graphNotes(st.lap),
	}
}
