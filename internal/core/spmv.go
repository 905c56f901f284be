package core

import (
	"fmt"

	"distenc/internal/mat"
)

// KernelMode selects the map-side MTTKRP kernel.
type KernelMode uint8

const (
	// KernelAuto (the default) resolves to KernelFused, which is faster on
	// every measured workload; it stays a distinct value so callers need not
	// name a kernel.
	KernelAuto KernelMode = iota
	// KernelFused forces the prefix/suffix Hadamard kernel everywhere.
	KernelFused
	// KernelSpMV forces the DFacTo-style SpMV-chain kernel everywhere.
	KernelSpMV
)

// String names the mode the way the -kernel CLI flag spells it.
func (k KernelMode) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelFused:
		return "fused"
	case KernelSpMV:
		return "spmv"
	}
	return fmt.Sprintf("KernelMode(%d)", uint8(k))
}

// ParseKernelMode parses a -kernel flag value.
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "fused":
		return KernelFused, nil
	case "spmv":
		return KernelSpMV, nil
	}
	return 0, fmt.Errorf("core: unknown kernel %q (want auto, fused, or spmv)", s)
}

// restModes fills rest with the order-1 modes other than n, ascending: the
// level sequence of mode n's SpMV walk below level 0.
func restModes(rest []int, order, n int) []int {
	rest = rest[:0]
	for m := 0; m < order; m++ {
		if m != n {
			rest = append(rest, m)
		}
	}
	return rest
}

// buildModePerms builds, for every mode n > 0 of partition p's block, the
// stable counting-sort permutation ordering entries by that mode's local row
// id (mode 0's canonical order is already correct, so its perm is nil). The
// layout calls it only when KernelSpMV is forced.
//
// The DFacTo reformulation (PAPERS.md) streams each mode's accumulation as a
// chain of sparse matrix-vector products instead of recomputing Hadamard
// prefixes per entry. Generalized to order N it is a flush-on-boundary walk
// over the entries re-sorted by (i_n, remaining modes ascending): ~2R flops
// per entry plus 2R per fiber boundary, versus the fused kernel's
// ~(3N−firstDiff)·R per entry. The permuted access pattern costs more than
// the flops save: fused is faster on every benchmark workload, long fibers
// included, which is why KernelAuto no longer weighs the two.
func (l *Layout) buildModePerms(p int, blk *TensorBlock) [][]int32 {
	order := blk.Order
	nnz := blk.NNZ()
	loc := l.locIdx[p]
	perms := make([][]int32, order)
	for n := 1; n < order; n++ {
		// Stability preserves the relative lexicographic order of the
		// remaining modes, which is exactly the walk's level sequence
		// [n, others ascending].
		cnt := make([]int32, len(l.neededRows[p][n])+1)
		for e := 0; e < nnz; e++ {
			cnt[loc[e*order+n]+1]++
		}
		for i := 1; i < len(cnt); i++ {
			cnt[i] += cnt[i-1]
		}
		perm := make([]int32, nnz)
		for e := 0; e < nnz; e++ {
			li := loc[e*order+n]
			perm[cnt[li]] = int32(e)
			cnt[li]++
		}
		perms[n] = perm
	}
	return perms
}

// spmvResiduals is pass 1 of the SpMV-chain kernel: it computes every
// entry's residual E = Ω∗(T−[[A]]) into resid (canonical entry order) and
// returns the block's ‖E‖²_F contribution. The forward prefix-product reuse
// and the summation order are identical to the fused kernel's, so the two
// kernels produce bit-identical residual norms. left is (order+1)·rank
// scratch.
//
//distenc:hotpath
func spmvResiduals(blk *TensorBlock, factors []*mat.Dense, rank int, left, resid []float64) float64 {
	order := blk.Order
	nnz := blk.NNZ()
	var norm2 float64
	for r := 0; r < rank; r++ {
		left[r] = 1
	}
	full := left[order*rank : (order+1)*rank : (order+1)*rank]
	for e := 0; e < nnz; e++ {
		idx := blk.Idx[e*order : (e+1)*order : (e+1)*order]
		firstDiff := 0
		if e > 0 {
			prev := blk.Idx[(e-1)*order : e*order]
			for firstDiff < order && idx[firstDiff] == prev[firstDiff] {
				firstDiff++
			}
		}
		for n := firstDiff; n < order; n++ {
			row := factors[n].Row(int(idx[n]))[:rank:rank]
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
		re := blk.Val[e] - model
		resid[e] = re
		norm2 += re * re
	}
	return norm2
}

// spmvModeMTTKRP is pass 2 for one mode: it streams the entries in perm
// order (nil perm = canonical order, valid for mode 0) and accumulates the
// mode's MTTKRP partials into accN through the chained-SpMV walk.
//
// The level sequence is [mode, rest[0], rest[1], …]; tmp[l·R:(l+1)·R] is the
// partial product owned by the current length-l level prefix, l = 1…N−1.
// Per entry the leaf accumulator gains resid·A(rest[N−2])[i]; when the walk
// crosses a fiber boundary at level d it folds each closing accumulator into
// its parent times the parent level's factor row — two chained SpMVs for
// order 3, N−1 of them in general — and the level-1 close scatters into
// accN. Entries sharing long fibers thus pay ~2R flops instead of the fused
// kernel's ~3N·R.
//
//distenc:hotpath
func spmvModeMTTKRP(blk *TensorBlock, loc []int32, perm []int32, mode int, rest []int,
	factors []*mat.Dense, rank int, resid, tmp []float64, accN []float64) {
	order := blk.Order
	nnz := blk.NNZ()
	if nnz == 0 {
		return
	}
	topLevel := order - 1
	clear(tmp[:order*rank])
	leafMode := rest[topLevel-1]
	leaf := tmp[topLevel*rank : order*rank : order*rank]
	prevE := -1
	for k := 0; k < nnz; k++ {
		e := k
		if perm != nil {
			e = int(perm[k])
		}
		idx := blk.Idx[e*order : (e+1)*order : (e+1)*order]
		if prevE >= 0 {
			pidx := blk.Idx[prevE*order : (prevE+1)*order]
			d := 0
			if idx[mode] == pidx[mode] {
				d = 1
				for d <= topLevel && idx[rest[d-1]] == pidx[rest[d-1]] {
					d++
				}
			}
			for lv := topLevel; lv > d; lv-- {
				spmvFlush(tmp, lv, pidx, prevE, loc, mode, rest, factors, rank, accN)
			}
		}
		row := factors[leafMode].Row(int(idx[leafMode]))[:rank:rank]
		re := resid[e]
		for r := 0; r < rank; r++ {
			leaf[r] += re * row[r]
		}
		prevE = e
	}
	pidx := blk.Idx[prevE*order : (prevE+1)*order]
	for lv := topLevel; lv >= 1; lv-- {
		spmvFlush(tmp, lv, pidx, prevE, loc, mode, rest, factors, rank, accN)
	}
}

// spmvFlush closes level lv's accumulator: levels ≥ 2 fold into the parent
// times the parent level's factor row at the closing entry; level 1
// scatters into the mode's accumulator slab and completes the chain.
//
//distenc:hotpath
func spmvFlush(tmp []float64, lv int, pidx []int32, prevE int, loc []int32, mode int, rest []int,
	factors []*mat.Dense, rank int, accN []float64) {
	src := tmp[lv*rank : (lv+1)*rank : (lv+1)*rank]
	if lv >= 2 {
		pm := rest[lv-2]
		row := factors[pm].Row(int(pidx[pm]))[:rank:rank]
		dst := tmp[(lv-1)*rank : lv*rank : lv*rank]
		for r := 0; r < rank; r++ {
			dst[r] += src[r] * row[r]
		}
	} else {
		li := int(loc[prevE*len(pidx)+mode])
		dst := accN[li*rank : (li+1)*rank : (li+1)*rank]
		for r := 0; r < rank; r++ {
			dst[r] += src[r]
		}
	}
	clear(src)
}
