// Package baselines implements the four comparison methods of the paper's
// evaluation (§IV-A):
//
//   - ALS — distributed alternating least squares tensor completion (the
//     MPI/OpenMP method of Smith et al. [22]); coarse-grained: every machine
//     replicates all factor matrices each epoch.
//   - TFAI — single-machine tensor completion with auxiliary information
//     (Narita et al. [14]); naive: materializes the completed dense tensor
//     and the explicit Khatri-Rao product.
//   - SCouT — distributed coupled matrix-tensor factorization (Jeon et
//     al. [23]); fine-grained like DisTenC but designed for MapReduce.
//   - FlexiFact — distributed SGD-based coupled factorization (Beutel et
//     al. [10]) on MapReduce, with block-stratified sub-epochs.
//
// Each keeps the memory/communication profile that drives its behaviour in
// Figures 3–7: the point of a baseline here is not bug-for-bug fidelity to
// the original codebase but matching the asymptotics the paper's comparison
// turns on (see DESIGN.md §2).
package baselines

import (
	"fmt"
	"math"
	"time"

	"distenc/internal/core"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// replicaBytes is the footprint of one full copy of the factor matrices.
func replicaBytes(factors []*mat.Dense) int64 {
	var total int64
	for _, f := range factors {
		r, c := f.Dims()
		total += int64(r) * int64(c) * 8
	}
	return total
}

// holdReplica charges bytes — one full factor replica, the coarse-grained
// profile ALS and FlexiFact share — to every live machine, and returns the
// function that gives it all back. A machine over its budget fails the call
// with ErrOutOfMemory (wrapped) and nothing stays charged.
func holdReplica(c *rdd.Cluster, bytes int64) (release func(), err error) {
	held := 0
	release = func() {
		for m := 0; m < held; m++ {
			c.Release(m, bytes)
		}
	}
	for ; held < c.Machines(); held++ {
		if err := c.Charge(held, bytes); err != nil {
			release()
			return nil, err
		}
	}
	return release, nil
}

// ALS runs distributed alternating least squares tensor completion (EM
// flavor: missing entries are implicitly filled by the current model via the
// same residual identity DisTenC uses, which is the strongest fair version
// of the baseline). It ignores auxiliary information — the paper's ALS does
// not support it — and replicates the full factor set on every machine each
// iteration, the coarse-grained communication pattern that makes it fail at
// high dimensionality in Figure 3a.
func ALS(c *rdd.Cluster, t *sptensor.Tensor, opt core.Options) (*core.Result, error) {
	opt = opt.WithDefaults()
	layout := core.NewLayout(t, core.DistOptions{Options: opt, Partitions: c.Machines(), UniformPartition: true})
	blocks := layout.BlocksRDD(c)
	blocks.Cache()
	if err := blocks.Materialize(); err != nil {
		return nil, fmt.Errorf("baselines: ALS caching blocks: %w", err)
	}
	defer blocks.Unpersist()

	factors := core.InitFactors(t.Dims, opt.Rank, opt.Seed)
	core.ApplyInitScale(factors, t, opt)
	// Coarse-grained: every machine holds every factor matrix for the whole
	// run, O(N·I·R) memory per machine.
	replica := replicaBytes(factors)
	release, err := holdReplica(c, replica)
	if err != nil {
		return nil, fmt.Errorf("baselines: ALS factor replication: %w", err)
	}
	defer release()
	start := time.Now()
	var trace metrics.Trace
	converged := false
	iters := 0

	for iter := 0; iter < opt.MaxIter; iter++ {
		iters = iter + 1
		// Each epoch re-ships the updated factors to every machine, O(M·N·I·R)
		// network: one replica per partition (P = M), attributed through the
		// task so it lands in a stage record.
		shipped := rdd.MapPartitions(blocks, "als-replicate", func(tc *rdd.TaskCtx, _ int, _ []*core.TensorBlock) ([]struct{}, error) {
			tc.CountShuffled(replica)
			return nil, nil
		})
		if _, err := shipped.Collect(); err != nil {
			return nil, err
		}
		hs, residNorm2, err := core.MTTKRPStage(c, blocks, layout, factors, core.DistOptions{Options: opt})
		if err != nil {
			return nil, err
		}
		grams := make([]*mat.Dense, t.Order())
		for n, f := range factors {
			grams[n] = mat.Gram(f)
		}
		var maxDelta float64
		next := make([]*mat.Dense, t.Order())
		for n := range factors {
			fn := sptensor.GramProduct(grams, n)
			h := mat.Mul(factors[n], fn)
			addH(h, hs[n])
			lhs := fn.Clone()
			for i := 0; i < lhs.Rows(); i++ {
				lhs.Add(i, i, opt.Lambda)
			}
			inv, err := mat.InverseSPD(lhs)
			if err != nil {
				return nil, fmt.Errorf("baselines: ALS normal equations: %w", err)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// addH adds the runs of H_n that core.MTTKRPStage returns into dst, an
// I_n×R matrix: dst += H_n.
func addH(dst *mat.Dense, h []core.HRows) {
	d := dst.Data()
	for _, run := range h {
		for i, v := range run.Vals {
			d[run.Lo*dst.Cols()+i] += v
		}
	}
}
