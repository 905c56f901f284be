package baselines

import (
	"fmt"
	"math"
	"time"

	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// TFAIFootprint returns the bytes a TFAI iteration materializes: the
// completed dense tensor X (twice: the tensor and its mode-n unfolding) plus
// the largest explicit Khatri-Rao product U(n). This is the quantity that
// makes TFAI the first method to fall over in Figure 3a.
// All products saturate at MaxInt64 — at the paper's 10⁹ mode sizes the true
// footprint overflows int64, and "more memory than any machine has" is the
// correct saturated meaning.
func TFAIFootprint(dims []int, rank int) int64 {
	dense := satMul(8, dimsProduct(dims, -1))
	var maxKR int64
	for n := range dims {
		kr := satMul(satMul(8, int64(rank)), dimsProduct(dims, n))
		if kr > maxKR {
			maxKR = kr
		}
	}
	return satAdd(satMul(2, dense), maxKR)
}

// dimsProduct returns Π dims[k] for k ≠ skip, saturating at MaxInt64.
func dimsProduct(dims []int, skip int) int64 {
	p := int64(1)
	for k, d := range dims {
		if k == skip {
			continue
		}
		p = satMul(p, int64(d))
	}
	return p
}

const maxInt64Val = int64(^uint64(0) >> 1)

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxInt64Val/b {
		return maxInt64Val
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > maxInt64Val-b {
		return maxInt64Val
	}
	return a + b
}

// TFAI runs the single-machine tensor completion with auxiliary information
// of Narita et al. — the same ADMM as Algorithm 1, implemented the way a
// straightforward port would be: it materializes the completed dense tensor
// X = T + Ωᶜ∗[[A]] every iteration, forms the explicit Khatri-Rao product
// U(n), multiplies the dense unfolding X_(n)·U(n), and solves the
// trace-regularized B update exactly with a fresh dense factorization (no
// pre-eigendecomposition, no linearized step). The same ADMM as
// core.Complete — the tests verify the iterates coincide without
// similarities, and the fixed points with them, where core takes one
// damped-Jacobi B-step instead of the exact solve — but with the memory and
// FLOP profile the paper's §III is designed to eliminate.
//
// The footprint is charged to machine 0 of c before anything is allocated,
// so at scale TFAI fails fast with rdd.ErrOutOfMemory instead of taking the
// process down.
func TFAI(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt core.Options) (*core.Result, error) {
	opt = opt.WithDefaults()
	footprint := TFAIFootprint(t.Dims, opt.Rank)
	if err := c.Charge(0, footprint); err != nil {
		return nil, fmt.Errorf("baselines: TFAI dense intermediates (%d bytes): %w", footprint, err)
	}
	defer c.Release(0, footprint)

	var laps []*graph.Laplacian
	if sims != nil {
		laps = make([]*graph.Laplacian, len(sims))
		for n, s := range sims {
			if s != nil && s.NumEdges() > 0 {
				laps[n] = graph.NewLaplacian(s)
			}
		}
	}

	order := t.Order()
	factors := core.InitFactors(t.Dims, opt.Rank, opt.Seed)
	core.ApplyInitScale(factors, t, opt)
	aux := make([]*mat.Dense, order)
	mult := make([]*mat.Dense, order)
	for n, d := range t.Dims {
		aux[n] = mat.NewDense(d, opt.Rank)
		mult[n] = mat.NewDense(d, opt.Rank)
	}
	eta := opt.Eta0
	start := time.Now()
	var trace metrics.Trace
	converged := false
	iters := 0

	for iter := 0; iter < opt.MaxIter; iter++ {
		iters = iter + 1
		model := sptensor.NewKruskal(factors...)
		// The naive step §III-D eliminates: materialize the dense completed
		// tensor.
		x := sptensor.FromKruskal(model)
		for e := 0; e < t.NNZ(); e++ {
			x.Set(t.Index(e), t.Val[e])
		}
		var trainSq float64
		for e := 0; e < t.NNZ(); e++ {
			d := t.Val[e] - model.At(t.Index(e))
			trainSq += d * d
		}

		next := make([]*mat.Dense, order)
		bs := make([]*mat.Dense, order)
		var maxDelta float64
		for n := 0; n < order; n++ {
			// B update with a fresh dense solve (no spectral caching).
			rhs := factors[n].Clone().Scale(eta)
			rhs.AddScaled(-1, mult[n])
			if laps == nil || laps[n] == nil {
				bs[n] = rhs.Scale(1 / eta)
			} else {
				b, err := graph.DirectInverseApply(laps[n], opt.Alpha, eta, rhs)
				if err != nil {
					return nil, fmt.Errorf("baselines: TFAI aux solve: %w", err)
				}
				bs[n] = b
			}
			// Explicit U(n) = A(N)⊙…⊙A(n+1)⊙A(n-1)⊙…⊙A(1) — the
			// intermediate-data explosion §III-C avoids.
			var u *mat.Dense
			for k := 0; k < order; k++ {
				if k == n {
					continue
				}
				if u == nil {
					u = factors[k]
				} else {
					u = mat.KhatriRao(factors[k], u)
				}
			}
			h := mat.Mul(x.Matricize(n), u)
			h.AddScaled(eta, bs[n])
			h.AddScaled(1, mult[n])
			lhs := mat.Gram(u)
			for i := 0; i < lhs.Rows(); i++ {
				lhs.Add(i, i, opt.Lambda+eta)
			}
			inv, err := mat.InverseSPD(lhs)
			if err != nil {
				return nil, fmt.Errorf("baselines: TFAI normal equations: %w", err)
			}
			next[n] = mat.Mul(h, inv)
			d := mat.SubMat(next[n], factors[n]).NormF()
			maxDelta = math.Max(maxDelta, d*d)
		}
		for n := 0; n < order; n++ {
			mult[n].AddScaled(eta, mat.SubMat(bs[n], next[n]))
			factors[n] = next[n]
			aux[n] = bs[n]
		}
		eta = math.Min(opt.Rho*eta, opt.EtaMax)

		point := metrics.ConvergencePoint{
			Iter:      iter,
			Elapsed:   time.Since(start),
			TrainRMSE: math.Sqrt(trainSq / float64(maxInt(1, t.NNZ()))),
			MaxDelta:  maxDelta,
		}
		trace = append(trace, point)
		if opt.OnIteration != nil {
			opt.OnIteration(point)
		}
		if maxDelta < opt.Tol {
			converged = true
			break
		}
	}
	return &core.Result{
		Model:     sptensor.NewKruskal(factors...),
		Aux:       aux,
		Iters:     iters,
		Converged: converged,
		Trace:     trace,
		Elapsed:   time.Since(start),
	}, nil
}
