package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"distenc/internal/mat"
)

// refBlockMTTKRP is the plain formulation of the fused kernel — its body as it
// stood before the loops were merged — kept as the reference
// fusedBlockMTTKRP is held to bit for bit: every prefix level is stored, the
// last one summed in a loop of its own, suf filled with the residual before
// the sweep, each mode's accumulate and suffix update run as two loops, and
// mode 0 multiplied by its all-ones prefix like any other mode (3N−f+1
// rank-length loops per entry; nine at order 3). It stores one prefix level
// more than the kernel does, so its scratch is newFusedScratch(N+1, R).
func refBlockMTTKRP(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
	order := blk.Order
	nnz := blk.NNZ()
	left, suf, rows := s.left, s.suf, s.rows
	var norm2 float64
	for r := 0; r < rank; r++ {
		left[r] = 1
	}
	full := left[order*rank : (order+1)*rank : (order+1)*rank]
	for e := 0; e < nnz; e++ {
		idx := blk.Idx[e*order : (e+1)*order : (e+1)*order]
		lidx := loc[e*order : (e+1)*order : (e+1)*order]
		firstDiff := 0
		if e > 0 {
			prev := blk.Idx[(e-1)*order : e*order]
			for firstDiff < order && idx[firstDiff] == prev[firstDiff] {
				firstDiff++
			}
		}
		for n := firstDiff; n < order; n++ {
			row := factors[n].Row(int(idx[n]))[:rank:rank]
			rows[n] = row
			src := left[n*rank : (n+1)*rank : (n+1)*rank]
			dst := left[(n+1)*rank : (n+2)*rank : (n+2)*rank]
			for r := 0; r < rank; r++ {
				dst[r] = src[r] * row[r]
			}
		}
		var model float64
		for r := 0; r < rank; r++ {
			model += full[r]
		}
		resid := blk.Val[e] - model
		norm2 += resid * resid
		for r := 0; r < rank; r++ {
			suf[r] = resid
		}
		for n := order - 1; n >= 0; n-- {
			lf := left[n*rank : (n+1)*rank : (n+1)*rank]
			li := int(lidx[n])
			dst := acc[n][li*rank : (li+1)*rank : (li+1)*rank]
			for r := 0; r < rank; r++ {
				dst[r] += lf[r] * suf[r]
			}
			if n > 0 {
				row := rows[n]
				for r := 0; r < rank; r++ {
					suf[r] *= row[r]
				}
			}
		}
	}
	return norm2
}

// blockKernel is the signature fusedBlockMTTKRP and its reference share.
type blockKernel func(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64

// kernelTask runs kernel over the blocks of one map task the way MTTKRPStage
// does — one call per block, the task's loc slab walked by offset — and
// returns the task's ‖E‖².
func kernelTask(kernel blockKernel, blocks []*TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
	var norm2 float64
	off := 0
	for _, blk := range blocks {
		norm2 += kernel(blk, loc[off:off+len(blk.Idx)], factors, rank, acc, s)
		off += len(blk.Idx)
	}
	return norm2
}

// TestFusedKernelMatchesReferenceBits holds fusedBlockMTTKRP to the plain
// formulation's bits — every accumulator slab and the returned ‖E‖² — at
// orders 1–5 and ranks 1–17, over uncoalesced tensors whose sorted blocks contain every first-differing mode 0…N
// (N = a duplicate entry), with each task's entries cut into a single-entry
// block, an empty block and two more so the loc offsets are exercised.
func TestFusedKernelMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(231, 232))
	for order := 1; order <= 5; order++ {
		dims := []int{4, 3, 3, 2, 3}[:order]
		ts := randomTensor(dims, 60*order, rng)
		for e := 0; e < 10; e++ { // exact duplicates, whatever the draw gave
			ts.Append(ts.Index(e), rng.NormFloat64())
		}
		for _, rank := range []int{1, 2, 3, 7, 10, 16, 17} {
			factors := randomFactors(dims, rank, rng)
			for _, f := range factors {
				for i, v := range f.Data() {
					f.Data()[i] = 2*v - 1 // both signs, so sums cancel and round
				}
			}
			l := testLayout(ts, rank, 2, true, false)
			seen := make([]bool, order+1)
			for p := 0; p < l.parts; p++ {
				blk, loc := l.blockParts[p][0], l.locIdx[p]
				for e := 1; e < blk.NNZ(); e++ {
					f := 0
					for f < order && blk.EntryIndex(e)[f] == blk.EntryIndex(e - 1)[f] {
						f++
					}
					seen[f] = true
				}
				// Cut the task's block at entries 1, 1 and the middle.
				var blocks []*TensorBlock
				cuts := []int{0, min(1, blk.NNZ()), min(1, blk.NNZ()), blk.NNZ() / 2, blk.NNZ()}
				slices.Sort(cuts)
				for i := 1; i < len(cuts); i++ {
					lo, hi := cuts[i-1], cuts[i]
					blocks = append(blocks, &TensorBlock{Order: order, Idx: blk.Idx[lo*order : hi*order], Val: blk.Val[lo:hi]})
				}
				// Both sides accumulate onto the same non-zero slabs: a store in
				// place of an add, or a row hit twice, cannot hide behind 0 + x.
				got, want := make([][]float64, order), make([][]float64, order)
				for n := range got {
					got[n] = make([]float64, len(l.neededRows[p][n])*rank)
					for i := range got[n] {
						got[n][i] = rng.NormFloat64()
					}
					want[n] = slices.Clone(got[n])
				}
				gotNorm := kernelTask(fusedBlockMTTKRP, blocks, loc, factors, rank, got, newFusedScratch(order, rank))
				wantNorm := kernelTask(refBlockMTTKRP, blocks, loc, factors, rank, want, newFusedScratch(order+1, rank))
				name := fmt.Sprintf("order %d rank %d block %d", order, rank, p)
				if math.Float64bits(gotNorm) != math.Float64bits(wantNorm) {
					t.Errorf("%s: ‖E‖² = %v (%#x), reference %v (%#x)", name, gotNorm, math.Float64bits(gotNorm), wantNorm, math.Float64bits(wantNorm))
				}
				for n := range got {
					for i := range got[n] {
						if math.Float64bits(got[n][i]) != math.Float64bits(want[n][i]) {
							t.Fatalf("%s: mode-%d slab[%d] = %v, reference %v", name, n, i, got[n][i], want[n][i])
						}
					}
				}
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Fatalf("order %d: no entry in any block first differs from its predecessor at mode %d; the tensor does not cover the case", order, i)
			}
		}
	}
}
