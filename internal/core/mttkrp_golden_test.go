package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// naiveStageMTTKRP is the golden reference for MTTKRPStage: the serial
// residual tensor (Eq. 14) fed through the serial row-wise MTTKRP of
// internal/sptensor — no blocks, no shuffle, no fused prefix products.
func naiveStageMTTKRP(t *sptensor.Tensor, factors []*mat.Dense) ([]*mat.Dense, float64) {
	resid := sptensor.Residual(t, sptensor.NewKruskal(factors...))
	hs := make([]*mat.Dense, t.Order())
	for n := 0; n < t.Order(); n++ {
		hs[n] = sptensor.MTTKRP(resid, factors, n, nil)
	}
	nf := resid.NormF()
	return hs, nf * nf
}

func randomTensor(dims []int, nnz int, rng *rand.Rand) *sptensor.Tensor {
	t := sptensor.New(dims...)
	idx := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for n, d := range dims {
			idx[n] = int32(rng.IntN(d))
		}
		t.Append(idx, rng.NormFloat64())
	}
	return t
}

func randomFactors(dims []int, rank int, rng *rand.Rand) []*mat.Dense {
	fs := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		fs[n] = mat.NewDense(d, rank)
		data := fs[n].Data()
		for i := range data {
			data[i] = rng.Float64()
		}
	}
	return fs
}

// relClose reports |a−b| ≤ tol·max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// goldenShapes are the tensors of the golden tests: orders 2 and 5 bracket the
// fused kernel's middle-mode loop (none, three) around the usual 3 and 4.
var goldenShapes = [][]int{
	{13, 11},
	{17, 23, 9},
	{7, 9, 11, 5},
	{5, 4, 6, 3, 4},
}

// TestMTTKRPStageMatchesNaive is the golden equivalence test for the stage
// kernel + packed shuffle: across tensor orders, block layouts and partition
// counts, the distributed stage must agree per row with the naive serial
// reference within 1e-9 relative tolerance.
func TestMTTKRPStageMatchesNaive(t *testing.T) {
	const tol = 1e-9
	const rank = 5
	layouts := []struct {
		name string
		opt  DistOptions
	}{
		{"mode0-greedy", DistOptions{}},
		{"grid", DistOptions{GridPartition: true}},
		{"uniform", DistOptions{UniformPartition: true}},
	}
	rng := rand.New(rand.NewPCG(71, 72))
	for _, dims := range goldenShapes {
		ts := randomTensor(dims, 40*len(dims)*len(dims), rng)
		factors := randomFactors(dims, rank, rng)
		wantHs, wantNorm2 := naiveStageMTTKRP(ts, factors)
		for _, lo := range layouts {
			for _, parts := range []int{1, 3, 8} {
				opt := lo.opt
				opt.Options = Options{Rank: rank}.withDefaults()
				opt.Partitions = parts
				c := rdd.MustNewCluster(rdd.Config{Machines: 3})
				layout := NewLayout(ts, opt)
				gotHs, gotNorm2, err := MTTKRPStage(c, layout.BlocksRDD(c), layout, factors, opt)
				if err != nil {
					t.Fatalf("order-%d %s P=%d: %v", len(dims), lo.name, parts, err)
				}
				if !relClose(gotNorm2, wantNorm2, tol) {
					t.Fatalf("order-%d %s P=%d: ‖E‖² = %v, want %v", len(dims), lo.name, parts, gotNorm2, wantNorm2)
				}
				for n := range wantHs {
					for i := 0; i < wantHs[n].Rows(); i++ {
						wantRow, gotRow := wantHs[n].Row(i), gotHs[n].Row(i)
						for r := 0; r < rank; r++ {
							if !relClose(gotRow[r], wantRow[r], tol) {
								t.Fatalf("order-%d %s P=%d: H_%d[%d,%d] = %v, want %v",
									len(dims), lo.name, parts, n, i, r, gotRow[r], wantRow[r])
							}
						}
					}
				}
				c.Close()
			}
		}
	}
}

// TestDistributedTraceMatchesSerial pins the full-solver equivalence at trace
// granularity. The distributed stage measures ‖E‖ before the iteration's
// update, so its trace lags the serial post-update RMSE by exactly one
// iteration (documented in CompleteDistributed); modulo that shift the two
// solvers must report identical training RMSEs.
func TestDistributedTraceMatchesSerial(t *testing.T) {
	d := synth.LinearFactorDataset([]int{18, 14, 22}, 3, 2200, 77)
	opts := Options{Rank: 4, MaxIter: 7, Tol: 0, Seed: 78, Alpha: 0.3}
	serial, err := Complete(d.Tensor, d.Sims, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer c.Close()
	dist, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Trace) != len(serial.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(dist.Trace), len(serial.Trace))
	}
	for i := 1; i < len(dist.Trace); i++ {
		got, want := dist.Trace[i].TrainRMSE, serial.Trace[i-1].TrainRMSE
		if !relClose(got, want, 1e-9) {
			t.Fatalf("iter %d: distributed RMSE %v, serial (lagged) %v", i, got, want)
		}
	}
}
