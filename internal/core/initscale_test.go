package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// refApplyInitScale is ApplyInitScale as it was before the batched
// evaluator: one Kruskal.At per stored entry, summed in storage order. It is
// the reference TestApplyInitScaleMatchesAtSum holds the production function
// to and what BenchmarkApplyInitScale's /ref sibling runs.
func refApplyInitScale(factors []*mat.Dense, t *sptensor.Tensor, opt Options) {
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

// TestApplyInitScaleMatchesAtSum: the automatic initial scale sums its
// predictions tile by tile, still in storage order, so the scaled factors are
// Float64bits-equal to the At loop's — at orders 1–4, ranks on both sides of
// the evaluator's slab, with duplicate cells, in unsorted storage, and on an
// empty tensor (which leaves the factors alone).
func TestApplyInitScaleMatchesAtSum(t *testing.T) {
	allDims := []int{40, 30, 20, 6}
	for order := 1; order <= 4; order++ {
		for _, rank := range []int{1, 5, 16, 1100} {
			for _, nnz := range []int{0, 1, 700, 5000} {
				name := fmt.Sprintf("order=%d/R=%d/nnz=%d", order, rank, nnz)
				dims := allDims[:order]
				rng := rand.New(rand.NewPCG(uint64(order*nnz), uint64(rank)))
				ts := sptensor.New(dims...)
				idx := make([]int32, order)
				for e := 0; e < nnz; e++ {
					for m, d := range dims {
						idx[m] = int32(rng.IntN(d))
					}
					if e%7 == 3 { // a duplicate of an earlier cell, out of order
						copy(idx, ts.Index(rng.IntN(e)))
					}
					ts.Append(idx, 3+rng.NormFloat64())
				}
				want := InitFactors(dims, rank, uint64(nnz))
				got := InitFactors(dims, rank, uint64(nnz))
				refApplyInitScale(want, ts, Options{})
				ApplyInitScale(got, ts, Options{})
				for n := range want {
					if !slices.EqualFunc(want[n].Data(), got[n].Data(), func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
						t.Fatalf("%s: mode %d factors differ from the At loop's", name, n)
					}
				}
				if nnz == 0 && !slices.Equal(got[0].Data(), InitFactors(dims, rank, 0)[0].Data()) {
					t.Fatalf("%s: an empty tensor rescaled the factors", name)
				}
			}
		}
	}
}

// BenchmarkApplyInitScale is a ledger row of the input path (BENCH_io.json):
// the automatic initial scale on solve-highdim's shape — facebook-sim at
// 25 000 × 25 000 × 5, 1.5·10⁵ non-zeros, R = 16 — in the storage order the
// reader leaves. The /ref sibling runs the At loop it replaced. Each
// iteration rescales factors the previous one left, the same work on both
// sides.
func BenchmarkApplyInitScale(b *testing.B) {
	d := synth.FacebookSim(synth.LinkPredConfig{Users: 25_000, Days: 5, Rank: 4, NNZ: 150_000, Seed: 1})
	for _, bench := range []struct {
		name  string
		apply func([]*mat.Dense, *sptensor.Tensor, Options)
	}{{"solve_highdim", ApplyInitScale}, {"solve_highdim/ref", refApplyInitScale}} {
		b.Run(bench.name, func(b *testing.B) {
			factors := InitFactors(d.Tensor.Dims, 16, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.apply(factors, d.Tensor, Options{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Tensor.NNZ()), "ns/nnz")
		})
	}
}
