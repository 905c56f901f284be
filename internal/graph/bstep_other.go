//go:build !amd64 || race

package graph

// hasVecBStep is false: off amd64, and under the race detector (which does
// not instrument assembly), BStep runs its Go body.
const hasVecBStep = false

func bstepAVX2(dst, prev, a, y []float64, off []int, col []int32, w, deg []float64, lo, hi, rank int, eta, alpha float64, nonNeg bool) int {
	panic("graph: this build has no vector B-step")
}
