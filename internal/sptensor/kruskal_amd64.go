//go:build !race

package sptensor

import "distenc/internal/cpu"

// hasVecCells reports whether this CPU and OS run the AVX2 body of the
// order-3 AtCells; -race builds get kruskal_other.go instead.
var hasVecCells = cpu.AVX2()

// atCells3AVX2 is the order-3 body in kruskal_amd64.s: it writes the value
// of each of the len(out) cells of flat to out, factors row-major at row
// length rank ≥ 1 and n_k the factors' row counts. It checks a cell's ids
// against those before it touches memory through them; bad is the first bad
// cell, or -1.
//
//go:noescape
func atCells3AVX2(flat []int32, out, f0, f1, f2 []float64, rank, n0, n1, n2 int) (bad int)
