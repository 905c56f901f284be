package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"distenc"
)

// TestSolveOptionsRefusesZeroWeights: -lambda 0 and -alpha 0 are refused with
// an error naming the flag and the default the library would silently have
// solved at, rather than run at that default.
func TestSolveOptionsRefusesZeroWeights(t *testing.T) {
	for _, tc := range []struct {
		lambda, alpha float64
		want          string
	}{
		{0, 0.1, "-lambda 0 would silently solve at the default λ = 0.01"},
		{0.01, 0, "-alpha 0 would silently solve at the default α = 0.1"},
	} {
		_, err := solveOptions(5, 10, 1e-4, tc.lambda, tc.alpha)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("λ = %g, α = %g: error %v, want one containing %q", tc.lambda, tc.alpha, err, tc.want)
		}
	}
	opt, err := solveOptions(5, 10, 1e-3, 0.5, 2)
	if err != nil || opt.Rank != 5 || opt.MaxIter != 10 || opt.Tol != 1e-3 || opt.Lambda != 0.5 || opt.Alpha != 2 {
		t.Fatalf("nonzero flags: %+v, %v", opt, err)
	}
}

// TestSolveOptionsTolZeroRunsEveryIteration: -tol 0 reaches the library as a
// zero Tol, and a zero Tol runs all -maxiter iterations, serial and at
// -machines 4. On this tensor (distenc-gen -dataset linear -dims 40,30,25
// -nnz 3000 -rank 3 -seed 9, read back as the CLI reads it) -rank 3 stops at
// iteration 156 if a zero Tol is replaced by 1e-4, so the test fails if the
// library defaults it; -tol 1e-1 still stops early.
func TestSolveOptionsTolZeroRunsEveryIteration(t *testing.T) {
	var coo bytes.Buffer
	if err := distenc.WriteCOO(&coo, distenc.GenerateLinearFactor([]int{40, 30, 25}, 3, 3000, 9).Tensor); err != nil {
		t.Fatal(err)
	}
	ts, err := distenc.ReadCOO(&coo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := distenc.NewCluster(distenc.ClusterConfig{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		tol       float64
		converged bool
	}{{1e-1, true}, {0, false}} {
		opt, err := solveOptions(3, 200, tc.tol, 1e-2, 1e-1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(opt.Tol) != math.Float64bits(tc.tol) {
			t.Fatalf("-tol %g: Options.Tol %g", tc.tol, opt.Tol)
		}
		opt.Seed = 1 // -seed's default
		for _, machines := range []int{0, 4} {
			var res *distenc.Result
			if machines == 0 {
				res, err = distenc.Complete(ts, nil, opt)
			} else {
				res, err = distenc.CompleteDistributed(c, ts, nil, distenc.DistOptions{Options: opt})
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged != tc.converged || !tc.converged && res.Iters != 200 {
				t.Errorf("-tol %g -machines %d: finished: %d iterations, converged=%v", tc.tol, machines, res.Iters, res.Converged)
			}
		}
	}
}
