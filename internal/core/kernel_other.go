//go:build !amd64 || race

package core

import "distenc/internal/mat"

// hasVecKernel is false: off amd64, and under the race detector (which
// does not instrument assembly), every block runs the portable kernel.
const hasVecKernel = false

func vecBlockMTTKRP3(*TensorBlock, []int32, []*mat.Dense, int, [][]float64, *fusedScratch) float64 {
	panic("core: this build has no vector kernel")
}
