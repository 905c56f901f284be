//go:build !race

package graph

import "distenc/internal/cpu"

// hasVecBStep reports whether this CPU and OS run the AVX2 body of
// Laplacian.BStep; -race builds get bstep_other.go instead.
var hasVecBStep = cpu.AVX2()

// bstepAVX2 is BStep's row loop four columns a step, in bstep_amd64.s. The
// caller has checked the four matrices against deg and rank and the row
// range; the assembly checks every offset and neighbour id before it reads
// through one, and returns the first row whose CSR entries are out of range,
// or -1.
//
//go:noescape
func bstepAVX2(dst, prev, a, y []float64, off []int, col []int32, w, deg []float64, lo, hi, rank int, eta, alpha float64, nonNeg bool) (bad int)
