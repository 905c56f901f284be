// Package core implements the paper's algorithms: DisTenC itself,
// Algorithm 3, running on the rdd engine, and the CP-based tensor completion
// ADMM of Algorithm 1 as its single-block case without the engine.
//
// Both run one kernel and one driver update — Jacobi-style mode updates
// within an iteration, the residual-tensor identity of Eq. (16) with E never
// stored, the spectral trace-regularization update of Eq. (7) — so the serial
// solver equals the distributed one at one partition bit for bit, and the
// tests hold both to the Residual + MTTKRP reference of internal/sptensor.
package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/sptensor"
)

// Options configures the ADMM solver. Zero values take the defaults
// documented per field (the paper's settings).
type Options struct {
	// Rank R of the CP model (default 10).
	Rank int
	// Lambda is the ℓ2 factor regularization weight λ (default 1e-2).
	Lambda float64
	// Alpha weights the trace (auxiliary similarity) regularization α_n,
	// shared across modes that have a similarity (default 1e-1).
	Alpha float64
	// Alphas optionally overrides Alpha per mode (the paper's α_n); a zero
	// entry falls back to Alpha. Length must equal the tensor order when
	// set.
	Alphas []float64
	// Eta0 is the initial ADMM penalty η (default 1.0), grown each
	// iteration by Rho (default 1.1) up to EtaMax (default 10). The penalty
	// must be large enough for the A=B consensus — and with it the trace
	// regularizer — to bind; the paper gives no schedule, and these values
	// follow standard ADMM practice (Boyd et al. [15]).
	Eta0, Rho, EtaMax float64
	// Tol stops the loop when max_n ‖A(n)_{t+1}−A(n)_t‖²_F < Tol
	// (Algorithm 3 line 15; default 1e-4).
	Tol float64
	// MaxIter bounds the outer iterations (default 50).
	MaxIter int
	// TruncK truncates each mode's Laplacian eigendecomposition to K
	// components; 0 decomposes exactly (the paper's K, §III-B).
	TruncK int
	// NonNegative projects the auxiliary variables B(n) onto the
	// non-negative orthant each iteration, honoring the A(n)=B(n) ≥ 0
	// constraint the paper's Eq. (4) states (its printed Algorithm 1 omits
	// the projection; this implements the constraint via the standard
	// projected ADMM splitting).
	NonNegative bool
	// ConsensusTol, when positive, additionally stops the loop once
	// max_n ‖A(n)−B(n)‖_F < ConsensusTol — the Algorithm 1 stopping
	// criterion, complementing the Algorithm 3 iterate-delta criterion.
	ConsensusTol float64
	// Seed fixes the factor initialization.
	Seed uint64
	// CheckpointEvery, when positive, persists the full solver state
	// (factors, auxiliary variables, multipliers, η, iteration counter) to
	// CheckpointDir after every CheckpointEvery-th iteration, atomically
	// replacing the previous checkpoint. Resume restarts from the latest
	// checkpoint and reproduces the uninterrupted run's factors bit-for-bit.
	CheckpointEvery int
	// CheckpointDir is where checkpoints are written (and where Resume looks
	// for one). Required when CheckpointEvery is set.
	CheckpointDir string
	// InitScale multiplies the U(0,1) factor initialization (0 = auto: the
	// solvers match the initial model's mean prediction to the observed
	// mean, which dramatically accelerates the EM-style fill-in when most
	// cells are missing; set to 1 to disable).
	InitScale float64
	// OnIteration, when set, receives one convergence point per iteration.
	OnIteration func(metrics.ConvergencePoint)
}

func (o Options) withDefaults() Options {
	if o.Rank <= 0 {
		o.Rank = 10
	}
	if o.Lambda == 0 {
		o.Lambda = 1e-2
	}
	if o.Alpha == 0 {
		o.Alpha = 1e-1
	}
	if o.Eta0 == 0 {
		o.Eta0 = 1.0
	}
	if o.Rho == 0 {
		o.Rho = 1.1
	}
	if o.EtaMax == 0 {
		o.EtaMax = 10
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	return o
}

// WithDefaults returns o with every unset field replaced by its documented
// default. Exposed so the baselines share the exact solver settings.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// InitFactors exposes the Algorithm 1/3 factor initialization so every
// method in a comparison starts from the same point given the same seed.
func InitFactors(dims []int, rank int, seed uint64) []*mat.Dense {
	return initFactors(dims, rank, seed)
}

// Result reports a completed run.
type Result struct {
	// Model holds the learned factor matrices; Model.At predicts any cell,
	// i.e. it is the completed tensor X in Kruskal form.
	Model *sptensor.Kruskal
	// Aux holds the auxiliary variables B(n).
	Aux []*mat.Dense
	// Iters is the number of outer iterations executed.
	Iters int
	// Converged reports whether the Tol criterion fired before MaxIter.
	Converged bool
	// Trace records per-iteration training error and timing.
	Trace metrics.Trace
	// Phases decomposes each iteration into MTTKRP map/reduce, Gram, and
	// driver-algebra time (stage walls for the distributed solver, in-process
	// section timers for the serial one — see metrics.PhaseTimes).
	Phases metrics.PhaseBreakdown
	// Elapsed is the total wall-clock training time.
	Elapsed time.Duration
	// Blocking is how the distributed solver cut the tensor into blocks and
	// what that ships per iteration (Shape is nil for the serial solver).
	Blocking Blocking
}

// ErrDimensionMismatch is returned when sims do not match the tensor modes.
var ErrDimensionMismatch = errors.New("core: similarity/tensor dimension mismatch")

// AlphaFor returns the trace-regularization weight for mode n.
func (o Options) AlphaFor(n int) float64 {
	if n < len(o.Alphas) && o.Alphas[n] != 0 {
		return o.Alphas[n]
	}
	return o.Alpha
}

func validate(t *sptensor.Tensor, sims []*graph.Similarity) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return validateSims(t, sims)
}

func validateOptions(t *sptensor.Tensor, o Options) error {
	if len(o.Alphas) > 0 && len(o.Alphas) != t.Order() {
		return fmt.Errorf("%w: %d per-mode alphas for order-%d tensor", ErrDimensionMismatch, len(o.Alphas), t.Order())
	}
	if o.CheckpointEvery > 0 && o.CheckpointDir == "" {
		return errors.New("core: Options.CheckpointEvery set without Options.CheckpointDir")
	}
	return nil
}

func validateSims(t *sptensor.Tensor, sims []*graph.Similarity) error {
	if sims == nil {
		return nil
	}
	if len(sims) != t.Order() {
		return fmt.Errorf("%w: %d similarities for order-%d tensor", ErrDimensionMismatch, len(sims), t.Order())
	}
	for n, s := range sims {
		if s != nil && s.N != t.Dims[n] {
			return fmt.Errorf("%w: mode %d similarity over %d objects, mode size %d", ErrDimensionMismatch, n, s.N, t.Dims[n])
		}
	}
	return nil
}

// initFactors draws the non-negative U(0,1) initialization of Algorithms 1/3
// (line 4), deterministically from the seed. Serial and distributed solvers
// share it so their iterates coincide.
func initFactors(dims []int, rank int, seed uint64) []*mat.Dense {
	rng := rand.New(rand.NewPCG(seed, 0xd15c0))
	out := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		f := mat.NewDense(d, rank)
		data := f.Data()
		for i := range data {
			data[i] = rng.Float64()
		}
		out[n] = f
	}
	return out
}

// spectra precomputes the per-mode spectral machinery (nil when a mode has
// no similarity). With TruncK = 0 each Laplacian is decomposed exactly.
func spectra(sims []*graph.Similarity, truncK int, seed uint64) ([]*graph.Spectral, error) {
	if sims == nil {
		return nil, nil
	}
	rng := rand.New(rand.NewPCG(seed, 0x5bec7))
	out := make([]*graph.Spectral, len(sims))
	for n, s := range sims {
		if s == nil || s.NumEdges() == 0 {
			continue
		}
		l := graph.NewLaplacian(s)
		var sp *graph.Spectral
		var err error
		if truncK > 0 && truncK < s.N {
			sp, err = graph.TruncatedSpectral(l, truncK, rng)
		} else {
			sp, err = graph.ExactSpectral(l)
		}
		if err != nil {
			return nil, fmt.Errorf("core: eigendecomposing mode %d Laplacian: %w", n, err)
		}
		out[n] = sp
	}
	return out, nil
}

// Objective evaluates Eq. (4)'s augmented objective at the current variables
// (without the Lagrangian terms): data fit + λ-regularization + trace
// smoothness. Used by tests and the examples to report fit quality.
func Objective(t *sptensor.Tensor, model *sptensor.Kruskal, sims []*graph.Similarity, lambda, alpha float64) float64 {
	res := sptensor.Residual(t, model)
	n := res.NormF()
	obj := 0.5 * n * n
	for _, f := range model.Factors {
		fn := f.NormF()
		obj += 0.5 * lambda * fn * fn
	}
	if sims != nil {
		for m, s := range sims {
			if s == nil || s.NumEdges() == 0 {
				continue
			}
			obj += 0.5 * alpha * graph.NewLaplacian(s).TraceQuadratic(model.Factors[m])
		}
	}
	return obj
}
