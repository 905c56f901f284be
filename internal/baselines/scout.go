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

// SCouT runs coupled matrix-tensor factorization in the style of Jeon et
// al.: the auxiliary similarity of mode n enters as a coupled matrix
// S_n ≈ A(n)·V(n)ᵀ sharing the mode-n factor, and every factor is updated by
// alternating least squares:
//
//	V(n) ← S_nᵀ A(n) (A(n)ᵀA(n) + λI)⁻¹
//	A(n) ← (A(n)F_n + E_(n)U(n) + S_n V(n)) (F_n + V(n)ᵀV(n) + λI)⁻¹
//
// The tensor-side heavy lifting (residual + MTTKRP) runs distributed with
// fine-grained row shipping, which is why SCouT — like DisTenC and unlike
// ALS — survives the full dimensionality sweep of Figure 3a. Run it on a
// ModeMapReduce cluster to reproduce its disk-bound wall-clock behaviour.
func SCouT(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt core.Options) (*core.Result, error) {
	opt = opt.WithDefaults()
	layout := core.NewLayout(t, core.DistOptions{Options: opt, Partitions: c.Machines()})
	blocks := layout.BlocksRDD(c)
	blocks.Cache() // no-op on MapReduce-mode clusters: lineage recomputes
	if err := blocks.Materialize(); err != nil {
		return nil, fmt.Errorf("baselines: SCouT caching blocks: %w", err)
	}
	defer blocks.Unpersist()

	order := t.Order()
	factors := core.InitFactors(t.Dims, opt.Rank, opt.Seed)
	core.ApplyInitScale(factors, t, opt)
	coupled := make([]*mat.Dense, order) // V(n), lazily created per coupled mode
	start := time.Now()
	var trace metrics.Trace
	converged := false
	iters := 0

	for iter := 0; iter < opt.MaxIter; iter++ {
		iters = iter + 1
		hs, residNorm2, err := core.MTTKRPStage(c, blocks, layout, factors, core.DistOptions{Options: opt})
		if err != nil {
			return nil, err
		}
		grams := make([]*mat.Dense, order)
		for n, f := range factors {
			grams[n] = mat.Gram(f)
		}
		var maxDelta float64
		next := make([]*mat.Dense, order)
		for n := 0; n < order; n++ {
			fn := sptensor.GramProduct(grams, n)
			h := mat.Mul(factors[n], fn)
			addH(h, hs[n])
			lhs := fn.Clone()
			if sims != nil && sims[n] != nil && sims[n].NumEdges() > 0 {
				// Coupled-matrix side: refresh V(n), then add S·V and VᵀV.
				gram := grams[n].Clone()
				for i := 0; i < gram.Rows(); i++ {
					gram.Add(i, i, opt.Lambda)
				}
				ginv, err := mat.InverseSPD(gram)
				if err != nil {
					return nil, fmt.Errorf("baselines: SCouT coupled solve: %w", err)
				}
				coupled[n] = mat.Mul(simMulDense(sims[n], factors[n]), ginv)
				h = mat.AddMat(h, simMulDense(sims[n], coupled[n]))
				lhs = mat.AddMat(lhs, mat.Gram(coupled[n]))
			}
			for i := 0; i < lhs.Rows(); i++ {
				lhs.Add(i, i, opt.Lambda)
			}
			inv, err := mat.InverseSPD(lhs)
			if err != nil {
				return nil, fmt.Errorf("baselines: SCouT normal equations: %w", err)
			}
			next[n] = mat.Mul(h, inv)
			d := mat.SubMat(next[n], factors[n]).NormF()
			maxDelta = math.Max(maxDelta, d*d)
		}
		factors = next

		point := metrics.ConvergencePoint{
			Iter:      iter,
			Elapsed:   time.Since(start),
			TrainRMSE: math.Sqrt(residNorm2 / float64(maxInt(1, t.NNZ()))),
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
		Iters:     iters,
		Converged: converged,
		Trace:     trace,
		Elapsed:   time.Since(start),
	}, nil
}

// simMulDense returns S·B for a sparse symmetric similarity in O(nnz(S)·R).
func simMulDense(s *graph.Similarity, b *mat.Dense) *mat.Dense {
	out := mat.NewDense(s.N, b.Cols())
	for i := 0; i < s.N; i++ {
		dst := out.Row(i)
		for _, e := range s.Adj[i] {
			src := b.Row(int(e.To))
			for r := range dst {
				dst[r] += e.Weight * src[r]
			}
		}
	}
	return out
}
