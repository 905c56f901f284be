package core

import (
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
	if err := validateOptions(t, opt); err != nil {
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
	hs := make([]*mat.Dense, t.Order())
	acc := make([][]float64, t.Order())
	for n, d := range t.Dims {
		hs[n] = mat.NewDense(d, opt.Rank)
		acc[n] = hs[n].Data()
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
		grams := make([]*mat.Dense, t.Order())
		for n, f := range st.factors {
			grams[n] = mat.Gram(f)
		}
		gramDur := time.Since(iterStart)
		next, bs := st.iterateWith(grams, hs)
		delta := st.advance(next, bs)
		if err := st.maybeCheckpoint(); err != nil {
			return nil, err
		}
		// One kernel call at A_{t+1} yields this iteration's training error
		// and the next iteration's H_n; it counts toward the MTTKRPMap phase
		// so the timing breakdown stays comparable across solvers.
		t0 := time.Now()
		residNorm2 := mttkrp()
		kernel := time.Since(t0)
		iterDur := time.Since(iterStart)
		st.phases = append(st.phases, metrics.PhaseTimes{
			Iter:      st.iter,
			MTTKRPMap: kernel,
			Gram:      gramDur,
			Driver:    iterDur - kernel - gramDur,
			Total:     iterDur,
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
		if st.stop(delta) {
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
	t       *sptensor.Tensor
	opt     Options
	lap     []*graph.Laplacian // nil entries: modes without a similarity
	factors []*mat.Dense       // A(n)
	aux     []*mat.Dense       // B(n)
	mult    []*mat.Dense       // Y(n)
	eta     float64
	iter    int

	consensus float64
	converged bool
	trace     metrics.Trace
	phases    metrics.PhaseBreakdown
	// work[n] is mode n's I_n×R workspace for the Eq. 16 right-hand side: an
	// iteration allocates only what it publishes.
	work []*mat.Dense
}

func newSolverState(t *sptensor.Tensor, lap []*graph.Laplacian, opt Options) *solverState {
	st := &solverState{
		t:       t,
		opt:     opt,
		lap:     lap,
		factors: initFactors(t.Dims, opt.Rank, opt.Seed),
		eta:     opt.Eta0,
	}
	ApplyInitScale(st.factors, t, opt)
	st.aux = make([]*mat.Dense, t.Order())
	st.mult = make([]*mat.Dense, t.Order())
	st.work = make([]*mat.Dense, t.Order())
	for n, d := range t.Dims {
		// B₀ = A₀: the B-step starts from the consensus point. From B₀ = 0 it
		// would drag A toward zero when α·d_i outweighs η.
		st.aux[n] = st.factors[n].Clone()
		st.mult[n] = mat.NewDense(d, opt.Rank)
		st.work[n] = mat.NewDense(d, opt.Rank)
	}
	return st
}

// iterateWith performs one Jacobi-style outer iteration: every mode's B and
// A updates are computed from the iteration-t variables (as Algorithm 3
// lines 7–12 do, with F and H cached per mode), returning the new factors
// and aux variables without committing them. grams are the per-mode
// self-products A(n)ᵀA(n); hs are the kernel's H_n = E_(n)·U(n) and are only
// read.
//
// The factor update is Algorithm 3 line 11, A ← (A·F + E_(n)·U(n) + ηB + Y)
// (F + cI)⁻¹ with c = λ+η, in its one-multiply form: F(F+cI)⁻¹ = I − c(F+cI)⁻¹
// turns it into A ← A + (E_(n)·U(n) + ηB + Y − cA)(F + cI)⁻¹ (DESIGN.md §5).
func (st *solverState) iterateWith(grams, hs []*mat.Dense) (next, bs []*mat.Dense) {
	order := st.t.Order()
	next = make([]*mat.Dense, order)
	bs = make([]*mat.Dense, order)
	for n := 0; n < order; n++ {
		eta, c := st.eta, st.opt.Lambda+st.eta
		bs[n] = st.updateAux(n)
		a := st.factors[n].Data()
		y, w := st.mult[n].Data()[:len(a)], st.work[n].Data()[:len(a)]
		// F_n + (λ+η)I via the Hadamard-of-Grams identity (Eq. 12).
		lhs := sptensor.GramProduct(grams, n)
		for i := 0; i < lhs.Rows(); i++ {
			lhs.Add(i, i, c)
		}
		inv, err := mat.InverseSPD(lhs)
		if err != nil {
			// F + (λ+η)I is SPD by construction; reaching this means the
			// factors carry non-finite values and iteration must stop.
			panic("core: normal-equation matrix not SPD: " + err.Error())
		}
		h, b := hs[n].Data()[:len(a)], bs[n].Data()[:len(a)]
		for i, av := range a {
			w[i] = h[i] + eta*b[i] + y[i] - c*av
		}
		next[n] = mat.NewDense(st.factors[n].Dims())
		mat.MulAddInto(next[n], 1, st.factors[n], st.work[n], inv)
	}
	return next, bs
}

// updateAux computes B(n) from x = ηA(n) − Y(n) in one pass over the rows of
// A, Y and the previous B: one damped-Jacobi step towards (ηI + αL_n)⁻¹·x
// (graph.Laplacian.BStep) on a mode with a similarity, x/η exactly on a mode
// without one, projected onto B ≥ 0 under NonNegative.
func (st *solverState) updateAux(n int) *mat.Dense {
	b := mat.NewDense(st.factors[n].Dims())
	bd, a, y := b.Data(), st.factors[n].Data(), st.mult[n].Data()
	if st.lap != nil && st.lap[n] != nil {
		st.lap[n].BStep(bd, st.aux[n].Data(), a, y, st.opt.Rank, st.eta, st.opt.AlphaFor(n), st.opt.NonNegative)
		return b
	}
	eta, inv := st.eta, 1/st.eta
	y = y[:len(a)]
	bd = bd[:len(a)]
	for i, av := range a {
		v := eta*av - y[i]
		bd[i] = v * inv
		if st.opt.NonNegative && bd[i] < 0 {
			bd[i] = 0
		}
	}
	return b
}

// advance commits the iteration — the Y and η updates of Algorithm 3 lines
// 12/14 — and returns the convergence value max_n ‖A_{t+1}−A_t‖²_F. The
// residual E = Ω∗(T − [[A_{t+1}]]) is the next kernel call's, never stored
// (§III-D; see DESIGN.md on the Algorithm 3 line-13 typo). It also records
// the consensus gap max_n ‖A(n)−B(n)‖_F for the Algorithm 1 stopping
// criterion. One pass per mode reads next/A/B and updates Y in place.
func (st *solverState) advance(next, bs []*mat.Dense) float64 {
	var maxDelta, consensus float64
	for n := range st.factors {
		nx := next[n].Data()
		a, b, y := st.factors[n].Data()[:len(nx)], bs[n].Data()[:len(nx)], st.mult[n].Data()[:len(nx)]
		var delta2, gap2 float64
		for i, nv := range nx {
			d := nv - a[i]
			delta2 += d * d
			gap := b[i] - nv
			gap2 += gap * gap
			// Y(n) ← Y(n) + η(B(n) − A(n)).
			y[i] += st.eta * gap
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

// stop reports whether either stopping criterion fired for delta.
func (st *solverState) stop(delta float64) bool {
	if delta < st.opt.Tol {
		return true
	}
	return st.opt.ConsensusTol > 0 && st.consensus < st.opt.ConsensusTol
}

// ApplyInitScale rescales the random initialization so the initial model's
// mean prediction over the observed cells matches the observed mean (unless
// opt.InitScale pins an explicit scale). With nearly all cells missing, the
// EM-style fill-in otherwise spends many iterations just finding the data's
// scale. Exported so every baseline starts from the identical point.
func ApplyInitScale(factors []*mat.Dense, t *sptensor.Tensor, opt Options) {
	scale := opt.InitScale
	if scale == 0 {
		if t.NNZ() == 0 {
			return
		}
		model := sptensor.NewKruskal(factors...)
		var predSum, obsSum float64
		for e := 0; e < t.NNZ(); e++ {
			predSum += model.At(t.Index(e))
			obsSum += t.Val[e]
		}
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
