package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/part"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// AblationResult is one design-choice comparison: the optimized path the
// paper proposes versus the naive alternative it replaces.
type AblationResult struct {
	ID        string
	Optimized time.Duration
	Naive     time.Duration
	// Note carries a non-timing observation (e.g. load imbalance values).
	Note string
	// OptimizedImbalance/NaiveImbalance hold the A3 load-balance metrics
	// (max partition load / mean load; 1.0 is perfect). Zero when unused.
	OptimizedImbalance, NaiveImbalance float64
}

// Speedup returns naive/optimized.
func (a AblationResult) Speedup() float64 {
	if a.Optimized <= 0 {
		return 0
	}
	return float64(a.Naive) / float64(a.Optimized)
}

// Ablations times the five design choices DESIGN.md calls out (A1–A5),
// optimized versus naive, on a shared medium workload.
func Ablations(w io.Writer, p Profile) []AblationResult {
	p = p.withDefaults()
	dim, rank, reps := 600, 10, 5
	if p.Small {
		dim, reps = 200, 3
	}
	header(w, "Ablations — §III design choices, optimized vs naive",
		"every optimized path at least matches its naive alternative, most are order-of-magnitude faster")
	rng := rand.New(rand.NewPCG(p.Seed, 1))
	var out []AblationResult

	// A1: spectral inverse (pre-eigendecomposed, Eq. 7) vs a dense solve of
	// (ηI+αL) per iteration.
	{
		l := graph.NewLaplacian(graph.TriDiagonal(dim))
		sp, err := graph.ExactSpectral(l)
		if err == nil {
			x := randDense(rng, dim, rank)
			opt := timeIt(reps, func() { sp.InverseApply(0.1, 0.5, x) })
			naive := timeIt(reps, func() {
				if _, err := graph.DirectInverseApply(l, 0.1, 0.5, x); err != nil {
					panic(err)
				}
			})
			out = append(out, AblationResult{ID: "A1 trace-reg spectral inverse", Optimized: opt, Naive: naive})
		}
	}

	// A2: residual-tensor H1 (Eq. 16) vs materializing the completed dense
	// tensor and the explicit Khatri-Rao product.
	{
		smallDim := 40 // dense path is cubic in the mode size
		d := synth.LinearFactorDataset([]int{smallDim, smallDim, smallDim}, 3, 4_000, p.Seed)
		factors := core.InitFactors(d.Tensor.Dims, rank, p.Seed)
		model := sptensor.NewKruskal(factors...)
		grams := make([]*mat.Dense, 3)
		for n, f := range factors {
			grams[n] = mat.Gram(f)
		}
		opt := timeIt(reps, func() {
			e := sptensor.Residual(d.Tensor, model)
			for n := 0; n < 3; n++ {
				h := mat.Mul(factors[n], sptensor.GramProduct(grams, n))
				_ = mat.AddMat(h, sptensor.MTTKRP(e, factors, n, nil))
			}
		})
		naive := timeIt(reps, func() {
			x := sptensor.FromKruskal(model)
			for e := 0; e < d.Tensor.NNZ(); e++ {
				x.Set(d.Tensor.Index(e), d.Tensor.Val[e])
			}
			for n := 0; n < 3; n++ {
				var u *mat.Dense
				for k := 0; k < 3; k++ {
					if k == n {
						continue
					}
					if u == nil {
						u = factors[k]
					} else {
						u = mat.KhatriRao(factors[k], u)
					}
				}
				_ = mat.Mul(x.Matricize(n), u)
			}
		})
		out = append(out, AblationResult{ID: "A2 residual-tensor update", Optimized: opt, Naive: naive})
	}

	// A3: greedy (Algorithm 2) vs uniform partitioning on a skewed tensor —
	// compare load imbalance and DisTenC wall-clock.
	{
		t := skewedTensor(dim*10, 40_000, p.Seed)
		counts := t.ModeCounts(0)
		g := part.Stats(counts, part.Greedy(counts, p.Machines))
		u := part.Stats(counts, part.Uniform(len(counts), p.Machines))
		og := runMethod(p, MethodDisTenC, p.Machines, t, nil, core.Options{Rank: rank, MaxIter: 2, Tol: 0, Seed: p.Seed}, true)
		ou := runMethodUniform(p, t, core.Options{Rank: rank, MaxIter: 2, Tol: 0, Seed: p.Seed})
		out = append(out, AblationResult{
			ID: "A3 greedy block partitioning", Optimized: og.Sim, Naive: ou.Sim,
			Note:               fmt.Sprintf("imbalance greedy %.2f vs uniform %.2f", g.Imbalance, u.Imbalance),
			OptimizedImbalance: g.Imbalance, NaiveImbalance: u.Imbalance,
		})
	}

	// A4: Hadamard-of-Grams UᵀU (Eq. 12, cached grams) vs the explicit
	// Khatri-Rao Gram.
	{
		factors := core.InitFactors([]int{dim, dim, dim}, rank, p.Seed)
		grams := make([]*mat.Dense, 3)
		for n, f := range factors {
			grams[n] = mat.Gram(f)
		}
		opt := timeIt(reps, func() {
			for n := 0; n < 3; n++ {
				_ = sptensor.GramProduct(grams, n)
			}
		})
		naive := timeIt(reps, func() {
			for n := 0; n < 3; n++ {
				var u *mat.Dense
				for k := 0; k < 3; k++ {
					if k == n {
						continue
					}
					if u == nil {
						u = factors[k]
					} else {
						u = mat.KhatriRao(factors[k], u)
					}
				}
				_ = mat.Gram(u)
			}
		})
		out = append(out, AblationResult{ID: "A4 Gram-product caching", Optimized: opt, Naive: naive})
	}

	// A6: the nested split cutting every mode (the paper's P×Q×K
	// compartmentalization, shape chosen from the row histograms) vs cutting
	// mode 0 only — compare factor-row shuffle volume.
	{
		t := synth.ScalabilityTensor([]int{dim * 3, dim * 3, dim * 3}, 40_000, p.Seed)
		opt := core.Options{Rank: rank, MaxIter: 2, Tol: 0, Seed: p.Seed}
		grid := runGridVariant(p, t, opt, true)
		mode0 := runGridVariant(p, t, opt, false)
		if grid.Result == nil || mode0.Result == nil {
			fmt.Fprintf(w, "A6 grid (P×Q×K) blocking: %s / %s\n", grid.Status, mode0.Status)
		} else {
			out = append(out, AblationResult{
				ID: "A6 grid (P×Q×K) blocking", Optimized: grid.Sim, Naive: mode0.Sim,
				Note: fmt.Sprintf("shuffled %.1fMB grid %v vs %.1fMB mode-0 %v",
					float64(grid.Metrics.BytesShuffled)/(1<<20), grid.Result.Blocking.Shape,
					float64(mode0.Metrics.BytesShuffled)/(1<<20), mode0.Result.Blocking.Shape),
				OptimizedImbalance: float64(grid.Metrics.BytesShuffled),
				NaiveImbalance:     float64(mode0.Metrics.BytesShuffled),
			})
		}
	}

	// A5: right-to-left multiplication order in the B update (Eq. 7) vs
	// left-to-right (Eq. 6) which materializes an I×I matrix.
	{
		l := graph.NewLaplacian(graph.TriDiagonal(dim))
		sp, err := graph.ExactSpectral(l)
		if err == nil {
			x := randDense(rng, dim, rank)
			opt := timeIt(reps, func() { sp.InverseApply(0.1, 0.5, x) })
			naive := timeIt(reps, func() { sp.InverseApplyLeftToRight(0.1, 0.5, x) })
			out = append(out, AblationResult{ID: "A5 multiply-order (Eq.7 vs Eq.6)", Optimized: opt, Naive: naive})
		}
	}

	for _, a := range out {
		fmt.Fprintf(w, "%-36s optimized %10.4fs  naive %10.4fs  speedup %6.1fx  %s\n",
			a.ID, a.Optimized.Seconds(), a.Naive.Seconds(), a.Speedup(), a.Note)
	}
	return out
}

func runGridVariant(p Profile, t *sptensor.Tensor, opt core.Options, grid bool) Outcome {
	c := rdd.MustNewCluster(rdd.Config{
		Machines:        8,
		CoresPerMachine: 1,
		SerializeTasks:  true,
	})
	defer c.Close()
	start := time.Now()
	res, err := core.CompleteDistributed(c, t, nil, core.DistOptions{Options: opt, GridPartition: grid})
	o := Outcome{
		Method: MethodDisTenC, Elapsed: time.Since(start), Sim: c.SimulatedTime(),
		Result: res, Metrics: c.Metrics().Snapshot(),
	}
	if err != nil {
		o.Status = "error: " + err.Error()
	} else {
		o.Status = StatusOK
	}
	return o
}

func runMethodUniform(p Profile, t *sptensor.Tensor, opt core.Options) Outcome {
	c := rdd.MustNewCluster(rdd.Config{
		Machines:        p.Machines,
		CoresPerMachine: 1,
		SerializeTasks:  true,
	})
	defer c.Close()
	start := time.Now()
	res, err := core.CompleteDistributed(c, t, nil, core.DistOptions{Options: opt, UniformPartition: true})
	o := Outcome{Method: MethodDisTenC, Elapsed: time.Since(start), Sim: c.SimulatedTime(), Result: res}
	if err != nil {
		o.Status = "error: " + err.Error()
	} else {
		o.Status = StatusOK
	}
	return o
}

func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

// skewedTensor concentrates half the non-zeros on the first few slices of
// mode 0, the load-imbalance regime Algorithm 2 targets.
func skewedTensor(dim, nnz int, seed uint64) *sptensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, 2))
	t := sptensor.New(dim, dim, dim)
	idx := make([]int32, 3)
	for e := 0; e < nnz; e++ {
		if e%2 == 0 {
			idx[0] = int32(rng.IntN(dim / 100))
		} else {
			idx[0] = int32(rng.IntN(dim))
		}
		idx[1] = int32(rng.IntN(dim))
		idx[2] = int32(rng.IntN(dim))
		t.Append(idx, rng.NormFloat64())
	}
	return t.Dedupe()
}
