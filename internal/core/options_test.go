package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

func TestNonNegativeOption(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 900, 31)
	res, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 20, Seed: 32, NonNegative: true})
	if err != nil {
		t.Fatal(err)
	}
	for n, b := range res.Aux {
		for _, v := range b.Data() {
			if v < 0 {
				t.Fatalf("mode %d aux has negative entry %v under NonNegative", n, v)
			}
		}
	}
	// And the distributed solver must agree with the serial one under the
	// projection too.
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	dist, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{
		Options: Options{Rank: 3, MaxIter: 20, Seed: 32, NonNegative: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range res.Model.Factors {
		if diff := mat.MaxAbsDiff(res.Model.Factors[n], dist.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("NonNegative: mode %d diverges by %v", n, diff)
		}
	}
}

// TestOptionsRefuseNegativeWeights: a negative or non-finite λ, α or η₀ is
// refused by both solvers with an error naming the field, before an
// iteration runs, while a negative Tol (never stop) stays legal.
func TestOptionsRefuseNegativeWeights(t *testing.T) {
	d := synth.LinearFactorDataset([]int{8, 7, 6}, 2, 200, 35)
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	solvers := map[string]func(Options) (*Result, error){
		"serial": func(o Options) (*Result, error) { return Complete(d.Tensor, d.Sims, o) },
		"distributed": func(o Options) (*Result, error) {
			return CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: o})
		},
	}
	for name, solve := range solvers {
		for _, field := range []string{"Lambda", "Alpha", "Eta0"} {
			for _, v := range []float64{-5, math.Copysign(1e-300, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
				t.Run(fmt.Sprintf("%s/%s=%v", name, field, v), func(t *testing.T) {
					o := Options{Rank: 2, MaxIter: 2, Seed: 36}
					switch field {
					case "Lambda":
						o.Lambda = v
					case "Alpha":
						o.Alpha = v
					case "Eta0":
						o.Eta0 = v
					}
					res, err := solve(o)
					if err == nil || !strings.Contains(err.Error(), "Options."+field) {
						t.Fatalf("err = %v, want one naming Options.%s", err, field)
					}
					if res != nil {
						t.Fatalf("a refused solve returned a result of %d iterations", res.Iters)
					}
				})
			}
		}
		if res, err := solve(Options{Rank: 2, MaxIter: 2, Tol: -1, Seed: 36}); err != nil || res.Iters != 2 {
			t.Fatalf("%s: Tol -1 gave %v after %v", name, err, res)
		}
	}
}
