//go:build !race

package core

import (
	"fmt"

	"distenc/internal/cpu"
	"distenc/internal/mat"
)

// hasVecKernel reports whether this CPU and OS run the AVX2 body of the
// order-3 kernel; -race builds get kernel_other.go instead.
var hasVecKernel = cpu.AVX2()

// fusedBlock3AVX2 is the order-3 body in kernel_amd64.s: factors and slabs
// row-major at row length rank, left = left1, left2, sum the ‖E‖² to add to,
// n_k and m_k the factors' and slabs' row counts. It checks an entry's ids
// against those before it touches memory; bad is the first bad entry, or -1.
//
//go:noescape
func fusedBlock3AVX2(idx, loc []int32, val, f0, f1, f2, acc0, acc1, acc2, left []float64, sum float64, rank, n0, n1, n2, m0, m1, m2 int) (norm2 float64, bad int)

// vecChunk is the most entries one assembly call covers: Go never preempts
// assembly, so it bounds how long a stop-the-world can wait (under a ms). A
// chunk's first entry recomputes its prefixes from the same rows (so the
// same bits), and ‖E‖² is carried from chunk to chunk in order.
const vecChunk = 4096

// vecBlockMTTKRP3 runs fusedBlockMTTKRP over an order-3 block with the rank
// loops four lanes wide. Each lane performs the portable kernel's IEEE
// operations on the same operands in the same order — products rounded one
// by one (no fused multiply-add), the dot summed lane by lane in ascending r
// from +0, left1 formed as 1·A0[i,:] — so the two agree bit for bit
// (DESIGN.md §5). The backward sweep runs the three modes in one pass over
// r, which is the same arithmetic because the three slabs are disjoint, as
// every caller's are.
//
// The block's shape is checked here once and every id in the assembly, so a
// bad block panics as it does in the portable kernel instead of reading or
// writing out of bounds.
//
//distenc:hotpath
func vecBlockMTTKRP3(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
	f0, f1, f2 := factors[0], factors[1], factors[2]
	a0, a1, a2 := acc[0], acc[1], acc[2]
	if rank < 1 || len(blk.Idx) != 3*len(blk.Val) || len(blk.Idx) > len(loc) ||
		f0.Cols() != rank || f1.Cols() != rank || f2.Cols() != rank ||
		len(a0)%rank != 0 || len(a1)%rank != 0 || len(a2)%rank != 0 {
		panic(fmt.Sprintf("core: order-3 block of %d ids, %d values, %d local ids does not fit rank %d, factors %d/%d/%d wide and slabs of %d/%d/%d values",
			len(blk.Idx), len(blk.Val), len(loc), rank, f0.Cols(), f1.Cols(), f2.Cols(), len(a0), len(a1), len(a2)))
	}
	var norm2 float64
	for lo := 0; lo < len(blk.Val); lo += vecChunk {
		hi := min(lo+vecChunk, len(blk.Val))
		var bad int
		norm2, bad = fusedBlock3AVX2(blk.Idx[3*lo:3*hi], loc[3*lo:3*hi], blk.Val[lo:hi], f0.Data(), f1.Data(), f2.Data(), a0, a1, a2, s.left[rank:3*rank],
			norm2, rank, f0.Rows(), f1.Rows(), f2.Rows(), len(a0)/rank, len(a1)/rank, len(a2)/rank)
		if bad >= 0 {
			e := lo + bad
			panic(fmt.Sprintf("core: block entry %d has ids %v, local ids %v: out of range for factors of %d/%d/%d rows and slabs of %d/%d/%d rows",
				e, blk.Idx[3*e:3*e+3], loc[3*e:3*e+3], f0.Rows(), f1.Rows(), f2.Rows(), len(a0)/rank, len(a1)/rank, len(a2)/rank))
		}
	}
	return norm2
}
