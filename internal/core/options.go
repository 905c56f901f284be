// Package core implements the paper's algorithms: DisTenC itself,
// Algorithm 3, running on the rdd engine, and the CP-based tensor completion
// ADMM of Algorithm 1 as its single-block case without the engine.
//
// Both run one kernel and one driver update — Jacobi-style mode updates
// within an iteration, the residual-tensor identity of Eq. (16) with E never
// stored, one damped-Jacobi step of the trace-regularized B-update on the
// sparse Laplacian (graph.Laplacian.BStep) — so the serial
// solver equals the distributed one at one partition bit for bit, and the
// tests hold both to the Residual + MTTKRP reference of internal/sptensor.
package core

import (
	"errors"
	"fmt"
	"math"
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
	// Alpha weights the trace (auxiliary similarity) regularization: the
	// paper's α_n, one value shared by every mode that has a similarity
	// (default 1e-1).
	Alpha float64
	// Eta0 is the initial ADMM penalty η (default 1.0); NextEta grows it
	// each iteration.
	Eta0 float64
	// Tol stops the loop when max_n ‖A(n)_{t+1}−A(n)_t‖²_F < Tol
	// (Algorithm 3 line 15; default 1e-4). A negative Tol never stops it.
	Tol float64
	// MaxIter bounds the outer iterations (default 50).
	MaxIter int
	// TruncK is ignored. It was the paper's truncation K of each mode's
	// Laplacian eigendecomposition (§III-B); the B-update now takes one
	// damped-Jacobi step on the sparse Laplacian and decomposes nothing
	// (DESIGN.md §2). It stays because benchmark/ sets it, and leaves with
	// ROADMAP item 2.
	TruncK int
	// NonNegative projects the auxiliary variables B(n) onto the
	// non-negative orthant each iteration, honoring the A(n)=B(n) ≥ 0
	// constraint the paper's Eq. (4) states (its printed Algorithm 1 omits
	// the projection; this implements the constraint via the standard
	// projected ADMM splitting).
	NonNegative bool
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
	// GraphNotes says, one line per mode with a similarity, the size of its
	// Laplacian and its largest degree, which sets how strongly the B-step
	// damps that mode (graph.Laplacian.BStep).
	GraphNotes []string
}

// ErrDimensionMismatch is returned when sims do not match the tensor modes.
var ErrDimensionMismatch = errors.New("core: similarity/tensor dimension mismatch")

// The penalty schedule: η grows by etaGrowth an iteration up to etaMax. The
// penalty must be large enough for the A=B consensus — and with it the trace
// regularizer — to bind; the paper gives no schedule, and these values follow
// standard ADMM practice (Boyd et al. [15]).
const (
	etaGrowth = 1.1
	etaMax    = 10
)

// NextEta returns the ADMM penalty of the iteration after one run at eta
// (Algorithm 3 line 14). Every ADMM solver of the module follows it.
func NextEta(eta float64) float64 { return math.Min(etaGrowth*eta, etaMax) }

func validate(t *sptensor.Tensor, sims []*graph.Similarity) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return validateSims(t, sims)
}

// validateOptions refuses options the defaults leave unusable: a negative or
// non-finite weight — the λ and α of Eq. 4 and the initial penalty η₀ — would
// make the objective unbounded below or the normal equations indefinite, and
// the solve would run on to garbage or diverge late.
func validateOptions(o Options) error {
	for _, w := range []struct {
		name string
		v    float64
	}{{"Lambda", o.Lambda}, {"Alpha", o.Alpha}, {"Eta0", o.Eta0}} {
		if w.v < 0 || math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return fmt.Errorf("core: Options.%s is %v: it must be finite and not negative", w.name, w.v)
		}
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

// laplacians builds each mode's sparse Laplacian once, before the loop (nil
// when a mode has no similarity or an empty one).
func laplacians(sims []*graph.Similarity) []*graph.Laplacian {
	if sims == nil {
		return nil
	}
	out := make([]*graph.Laplacian, len(sims))
	for n, s := range sims {
		if s != nil && s.NumEdges() > 0 {
			out[n] = graph.NewLaplacian(s)
		}
	}
	return out
}

// graphNotes renders the GraphNotes lines of lap.
func graphNotes(lap []*graph.Laplacian) []string {
	var out []string
	for n, l := range lap {
		if l != nil {
			out = append(out, fmt.Sprintf("graph mode %d: %d nodes, %d edges, max degree %.4g",
				n, l.Dim(), l.NumEdges(), l.MaxDegree()))
		}
	}
	return out
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
