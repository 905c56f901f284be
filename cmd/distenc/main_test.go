package main

import (
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

// TestSolveOptionsTolZeroRunsEveryIteration: -tol 0 runs all -maxiter
// iterations, on a tensor where the default tolerance stops the solve early.
func TestSolveOptionsTolZeroRunsEveryIteration(t *testing.T) {
	d := distenc.GenerateLinearFactor([]int{20, 15, 10}, 3, 500, 9)
	for _, tc := range []struct {
		tol       float64
		converged bool
	}{{1e-1, true}, {0, false}} {
		opt, err := solveOptions(3, 60, tc.tol, 1e-2, 1e-1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := distenc.Complete(d.Tensor, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged != tc.converged || !tc.converged && res.Iters != 60 {
			t.Errorf("-tol %g: %d iterations, converged=%v", tc.tol, res.Iters, res.Converged)
		}
	}
}
