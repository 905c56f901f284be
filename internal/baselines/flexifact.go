package baselines

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/part"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// SGD settings. The step at epoch t is sgdLearningRate/(1+t), halved
// whenever an epoch fails to improve the running training error (bold-driver
// backoff). The error signal and factor values are clipped so a single bad
// stratum cannot blow the model up.
const (
	sgdLearningRate = 0.05
	sgdErrClip      = 100.0
	sgdValueClip    = 1e3
)

// FlexiFact runs distributed stochastic gradient descent factorization in
// the style of Beutel et al.: the first two modes are split into P blocks
// each, and an epoch executes P sub-epochs, each processing the P disjoint
// stratum blocks {(b, (b+s) mod P)} in parallel. Within a stratum task the
// blocks own their mode-0/mode-1 factor rows exclusively; updates to the
// shared remaining modes are returned as deltas and folded in by the driver
// between sub-epochs.
//
// Auxiliary similarity enters the SGD objective as the trace-regularization
// gradient α(a_i − a_j) applied along similarity edges once per epoch.
//
// The cost profile reproduces the paper's findings: every machine holds a
// full factor replica (charged per epoch — FlexiFact hits O.O.M. with ALS in
// Figure 3a), and each of the P sub-epochs re-ships factor blocks, giving the
// high communication cost Figure 3a attributes to it. Run on a
// ModeMapReduce cluster for its Hadoop wall-clock behaviour.
func FlexiFact(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt core.Options) (*core.Result, error) {
	opt = opt.WithDefaults()
	if t.Order() < 2 {
		return nil, fmt.Errorf("baselines: FlexiFact needs at least 2 modes")
	}
	p := c.Machines()
	bounds0 := part.Uniform(t.Dims[0], p)
	bounds1 := part.Uniform(t.Dims[1], p)
	p = bounds0.NumPartitions() // clamped for tiny modes
	if bp := bounds1.NumPartitions(); bp < p {
		p = bp
	}

	// Bucket entries into the P×P grid over modes 0 and 1.
	grid := make([][]*core.TensorBlock, p*p)
	for i := range grid {
		grid[i] = []*core.TensorBlock{{Order: t.Order()}}
	}
	for e := 0; e < t.NNZ(); e++ {
		idx := t.Index(e)
		b0 := bounds0.PartitionOf(int(idx[0]))
		b1 := bounds1.PartitionOf(int(idx[1]))
		if b0 >= p {
			b0 = p - 1
		}
		if b1 >= p {
			b1 = p - 1
		}
		blk := grid[b0*p+b1][0]
		blk.Idx = append(blk.Idx, idx...)
		blk.Val = append(blk.Val, t.Val[e])
	}

	order := t.Order()
	rank := opt.Rank
	factors := core.InitFactors(t.Dims, rank, opt.Seed)
	core.ApplyInitScale(factors, t, opt)
	// Full-replica memory profile: every machine holds all factors for the
	// whole run.
	release, err := holdReplica(c, replicaBytes(factors))
	if err != nil {
		return nil, fmt.Errorf("baselines: FlexiFact factor replication: %w", err)
	}
	defer release()
	start := time.Now()
	var trace metrics.Trace
	converged := false
	iters := 0
	rng := rand.New(rand.NewPCG(opt.Seed, 0xf1e81fac7))

	// Seed the bold driver with the true initial training error so a
	// divergent first epoch is rolled back like any other.
	initModel := sptensor.NewKruskal(factors...)
	var initSq float64
	for e := 0; e < t.NNZ(); e++ {
		d := t.Val[e] - initModel.At(t.Index(e))
		initSq += d * d
	}
	lrScale := 1.0
	prevRMSE := math.Sqrt(initSq / float64(maxInt(1, t.NNZ())))
	for epoch := 0; epoch < opt.MaxIter; epoch++ {
		iters = epoch + 1
		lr := lrScale * sgdLearningRate / (1 + float64(epoch))
		prev := make([]*mat.Dense, order)
		for n, f := range factors {
			prev[n] = f.Clone()
		}
		var epochSq float64
		var epochCount int64

		for s := 0; s < p; s++ {
			// Stratum s: blocks (b, (b+s) mod p), pairwise disjoint in both
			// partitioned modes.
			strata := make([][]*core.TensorBlock, p)
			for b := 0; b < p; b++ {
				strata[b] = grid[b*p+(b+s)%p]
			}
			blocksRDD := rdd.FromPartitions(c, fmt.Sprintf("flexifact-s%d", s), strata)
			type rowUpdate struct {
				K core.RowKey
				V []float64
			}
			type sgdOut struct {
				Rows   []rowUpdate // absolute rows (owned modes) and deltas (shared modes)
				SqErr  float64
				NumObs int64
			}
			// Factor rows are read-only here: every touched row is copied into
			// `local` before the SGD update, and the two-way shipment (pull +
			// push-back) is charged below via tc.CountShuffled. Re-shipping
			// every factor instead would bill O(machines·ΣI_n·R) per stratum,
			// which is exactly the overhead FlexiFact's block scheduling
			// avoids. opt is a by-value hyperparameter struct.
			//distenc:capture-ok factors opt -- accounted row shipping (2*shipped via CountShuffled); SGD mutates copies only
			results := rdd.MapPartitions(blocksRDD, "flexifact-sgd", func(tc *rdd.TaskCtx, b int, in []*core.TensorBlock) ([]sgdOut, error) {
				// Per-sub-epoch block shipping, both directions.
				var shipped int64
				local := map[core.RowKey][]float64{}
				touch := func(n int, row int32) []float64 {
					k := core.RowKey{Mode: int16(n), Row: row}
					v := local[k]
					if v == nil {
						v = append([]float64(nil), factors[n].Row(int(row))...)
						local[k] = v
						shipped += int64(rank) * 8
					}
					return v
				}
				var sq float64
				var cnt int64
				grad := make([]float64, rank)
				for _, blk := range in {
					for e := 0; e < blk.NNZ(); e++ {
						idx := blk.EntryIndex(e)
						rows := make([][]float64, order)
						for n := 0; n < order; n++ {
							rows[n] = touch(n, idx[n])
						}
						var pred float64
						for r := 0; r < rank; r++ {
							v := 1.0
							for n := 0; n < order; n++ {
								v *= rows[n][r]
							}
							pred += v
						}
						err := blk.Val[e] - pred
						// Clip the error signal: plain SGD on products of
						// N factors blows up without it (the FlexiFact
						// paper uses bold-driver style step control; a clip
						// is the simplest stable equivalent).
						if err > sgdErrClip {
							err = sgdErrClip
						} else if err < -sgdErrClip {
							err = -sgdErrClip
						}
						sq += err * err
						cnt++
						for n := 0; n < order; n++ {
							for r := 0; r < rank; r++ {
								g := err
								for k := 0; k < order; k++ {
									if k != n {
										g *= rows[k][r]
									}
								}
								grad[r] = g - opt.Lambda*rows[n][r]
							}
							for r := 0; r < rank; r++ {
								v := rows[n][r] + lr*grad[r]
								if v > sgdValueClip {
									v = sgdValueClip
								} else if v < -sgdValueClip {
									v = -sgdValueClip
								}
								rows[n][r] = v
							}
						}
					}
				}
				if err := tc.ChargeTransient(shipped); err != nil {
					return nil, err
				}
				// Attribute the row traffic to this task so stage records sum
				// to the cluster totals (was a direct Metrics poke, which left
				// the per-stage transfer profile short by exactly this much).
				tc.CountShuffled(2 * shipped)
				out := sgdOut{SqErr: sq, NumObs: cnt, Rows: make([]rowUpdate, 0, len(local))}
				for k, v := range local {
					if int(k.Mode) >= 2 {
						// Shared mode: emit the delta, not the value.
						base := factors[k.Mode].Row(int(k.Row))
						for r := range v {
							v[r] -= base[r]
						}
					}
					out.Rows = append(out.Rows, rowUpdate{K: k, V: v})
				}
				return []sgdOut{out}, nil
			})
			collected, err := results.Collect()
			if err != nil {
				return nil, err
			}
			for _, res := range collected {
				epochSq += res.SqErr
				epochCount += res.NumObs
				for _, kv := range res.Rows {
					dst := factors[kv.K.Mode].Row(int(kv.K.Row))
					if int(kv.K.Mode) >= 2 {
						for r := range dst {
							dst[r] += kv.V[r]
						}
					} else {
						copy(dst, kv.V)
					}
				}
			}
		}

		// Trace-regularization pass along similarity edges (coupled-side
		// gradient), once per epoch on the driver.
		if sims != nil {
			applyGraphGradient(factors, sims, lr*opt.Alpha, rng)
		}

		epochRMSE := math.Sqrt(epochSq / float64(maxInt64(1, epochCount)))
		// The convergence delta reflects the attempted update, measured
		// before any rollback.
		var maxDelta float64
		for n := range factors {
			d := mat.SubMat(factors[n], prev[n]).NormF()
			maxDelta = math.Max(maxDelta, d*d)
		}
		// Bold-driver backoff: a worsening (or non-finite) epoch halves the
		// step and rolls the factors back.
		if !(epochRMSE < prevRMSE*1.01) || math.IsNaN(epochRMSE) {
			lrScale /= 2
			for n := range factors {
				factors[n] = prev[n]
			}
		} else {
			prevRMSE = epochRMSE
		}
		point := metrics.ConvergencePoint{
			Iter:      epoch,
			Elapsed:   time.Since(start),
			TrainRMSE: epochRMSE,
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

// applyGraphGradient nudges factor rows toward their similarity neighbors:
// a_i += step·Σ_{j∈N(i)} w_ij (a_j − a_i), the SGD form of the trace penalty.
func applyGraphGradient(factors []*mat.Dense, sims []*graph.Similarity, step float64, rng *rand.Rand) {
	for n, s := range sims {
		if s == nil || s.NumEdges() == 0 {
			continue
		}
		f := factors[n]
		for i := 0; i < s.N; i++ {
			if len(s.Adj[i]) == 0 {
				continue
			}
			// One sampled neighbor per node keeps the pass O(I).
			e := s.Adj[i][rng.IntN(len(s.Adj[i]))]
			fi := f.Row(i)
			fj := f.Row(int(e.To))
			for r := range fi {
				fi[r] += step * e.Weight * (fj[r] - fi[r])
			}
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
