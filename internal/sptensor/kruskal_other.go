//go:build !amd64 || race

package sptensor

// hasVecCells is false: off amd64, and under the race detector (which does
// not instrument assembly), AtCells runs its Go body at every order.
const hasVecCells = false

func atCells3AVX2(flat []int32, out, f0, f1, f2 []float64, rank, n0, n1, n2 int) int {
	panic("sptensor: this build has no vector AtCells body")
}
