package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"distenc/internal/part"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// TestNewLayoutMatchesReference: the fused build lays out exactly what the
// reference does, field for field — blocks, their entry order, needed rows,
// local ids, row runs, arena demands and the blocking — on order-3 and
// order-4 tensors, grid and 1-D splits with greedy and uniform ranges, P of
// 1, 3, 4 and 8, a P above a mode's length (empty blocks), an unsorted input
// (sortEntriesModeMajor's sorting path), duplicated entries and an empty
// tensor, and on the five benchmark tensors at their own P.
func TestNewLayoutMatchesReference(t *testing.T) {
	shuffled := synth.LinearFactorDataset([]int{30, 20, 25}, 3, 2_000, 4).Tensor.Clone()
	rng := rand.New(rand.NewPCG(53, 1))
	for e := shuffled.NNZ() - 1; e > 0; e-- {
		f := rng.IntN(e + 1)
		a, b := shuffled.Index(e), shuffled.Index(f)
		for n := range a {
			a[n], b[n] = b[n], a[n]
		}
		shuffled.Val[e], shuffled.Val[f] = shuffled.Val[f], shuffled.Val[e]
	}
	// Each entry twice, with values that tell the two apart: which copy comes
	// first in a block shows whether the build kept the entries' order.
	base := synth.LinearFactorDataset([]int{30, 20, 25}, 3, 1_000, 8).Tensor
	twice := sptensor.New(base.Dims...)
	for e := range base.NNZ() {
		twice.Append(base.Index(e), base.Val[e])
		twice.Append(base.Index(e), -base.Val[e])
	}
	tensors := []struct {
		name string
		t    *sptensor.Tensor
	}{
		{"order3", synth.LinearFactorDataset([]int{60, 50, 40}, 3, 8_000, 5).Tensor},
		{"order4", synth.LinearFactorDataset([]int{12, 10, 9, 8}, 3, 3_000, 6).Tensor},
		{"short-mode", synth.ScalabilityTensor([]int{2, 40, 3}, 200, 7)},
		{"unsorted", shuffled},
		{"duplicates", twice},
		{"empty", sptensor.New(7, 5, 6)},
	}
	for _, tc := range tensors {
		for _, p := range []int{1, 3, 4, 8} {
			for _, grid := range []bool{false, true} {
				for _, uniform := range []bool{false, true} {
					checkLayoutMatches(t, fmt.Sprintf("%s/P=%d/grid=%v/uniform=%v", tc.name, p, grid, uniform), tc.t, p, grid, uniform)
				}
			}
		}
	}
	for _, bt := range benchmarkTensors() {
		checkLayoutMatches(t, bt.name, bt.tensor, bt.parts, true, false)
	}
}

// checkLayoutMatches fails t unless NewLayout and refNewLayout build equal
// layouts of tn.
func checkLayoutMatches(t *testing.T, name string, tn *sptensor.Tensor, p int, grid, uniform bool) {
	t.Helper()
	opt := DistOptions{Options: Options{Rank: 4}.withDefaults(), Partitions: p, GridPartition: grid, UniformPartition: uniform}
	got, want := NewLayout(tn, opt), refNewLayout(tn, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the layout differs from the reference's\ngot  %+v\nwant %+v", name, got.blocking, want.blocking)
	}
}

// FuzzNewLayout holds NewLayout to the reference on tiny tensors the fuzzer
// builds: the first bytes give the order (3 or 4), the mode lengths (1–8), P
// (1–9) and the grid and uniform flags, and every further order+1 bytes one
// entry, in the fuzzer's order, duplicates and all.
func FuzzNewLayout(f *testing.F) {
	f.Add([]byte{0, 4, 5, 6, 3, 1, 0, 1, 2, 9, 3, 4, 5, 7, 1, 1, 1, 2})
	f.Add([]byte{1, 2, 3, 4, 5, 7, 3, 1, 2, 3, 0, 8, 1, 0, 2, 1, 6, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 1, 1, 8, 2})
	f.Add([]byte{0, 8, 2, 8, 5, 1, 7, 1, 7, 3, 6, 0, 5, 9, 0, 1, 4, 2, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		order := 3 + int(data[0]&1)
		dims := make([]int, order)
		for n := range dims {
			dims[n] = 1 + int(data[1+n]%8)
		}
		p := 1 + int(data[1+order]%9)
		flags := data[2+order]
		tn := sptensor.New(dims...)
		idx := make([]int32, order)
		for rest := data[3+order:]; len(rest) > order; rest = rest[order+1:] {
			for n := range idx {
				idx[n] = int32(rest[n]) % int32(dims[n])
			}
			tn.Append(idx, float64(rest[order])-128)
		}
		checkLayoutMatches(t, fmt.Sprintf("dims %v P=%d flags %d", dims, p, flags&3), tn, p, flags&1 != 0, flags&2 != 0)
	})
}

// refNewLayout is NewLayout as it was before the build fused its passes:
// one histogram pass per mode, a histogram pass and a cell pass per cut mode,
// a counting pass, a generic copy per entry, and per block and mode a marking
// pass with a branch, a scan and a local-id pass. It is the equality oracle of
// TestNewLayoutMatchesReference and FuzzNewLayout, and what the /ref siblings
// of BenchmarkNewLayout time.
func refNewLayout(t *sptensor.Tensor, opt DistOptions) *Layout {
	p := opt.Partitions
	order := t.Order()
	l := &Layout{
		order:      order,
		rank:       opt.Rank,
		dims:       t.Dims,
		parts:      p,
		modeBounds: make([]part.Boundaries, order),
		blockParts: make([][]*TensorBlock, p),
		neededRows: make([][][]int32, p),
		locIdx:     make([][]int32, p),
		rowRuns:    make([][][]int, p),
		hv:         make([][]HRows, order),
		reduceNeed: make([]int, p),
	}
	counts := make([][]int64, order)
	for n := 0; n < order; n++ {
		counts[n] = t.ModeCounts(n)
		if opt.UniformPartition {
			l.modeBounds[n] = part.Uniform(t.Dims[n], p)
		} else {
			l.modeBounds[n] = part.Greedy(counts[n], p)
		}
	}
	l.blocking.Shape, l.blocking.Bound = chooseShape(counts, p, opt.GridPartition)
	blocks := refSplitNested(t, counts, l.blocking.Shape, opt.UniformPartition)

	// local[row] is 0 for a row the (block, mode) at hand does not touch, else
	// the row's position in the block's needed-row list plus one.
	local := make([]int32, slices.Max(t.Dims))
	maxBlock := 0
	for b, blk := range blocks {
		sortEntriesModeMajor(blk)
		nnz := blk.NNZ()
		maxBlock = max(maxBlock, nnz)
		l.blockParts[b] = []*TensorBlock{blk}
		l.neededRows[b] = make([][]int32, order)
		l.rowRuns[b] = make([][]int, order)
		loc := make([]int32, len(blk.Idx))
		for n := 0; n < order; n++ {
			rows := refNeededRows(blk, n, local)
			for e := 0; e < nnz; e++ {
				loc[e*order+n] = local[blk.Idx[e*order+n]] - 1
			}
			for _, row := range rows {
				local[row] = 0
			}
			l.neededRows[b][n] = rows
			l.rowRuns[b][n] = l.modeBounds[n].RunsOf(rows)
			l.blocking.PartialRows += int64(len(rows))
		}
		l.locIdx[b] = loc
	}
	for rp := range l.reduceNeed {
		for _, runs := range l.rowRuns { // the largest block rp decodes
			rows := 0
			for _, r := range runs {
				if rp < len(r)-1 {
					rows += r[rp+1] - r[rp]
				}
			}
			l.reduceNeed[rp] = max(l.reduceNeed[rp], rows*opt.Rank)
		}
		for _, b := range l.modeBounds { // and its slabs
			if rp < b.NumPartitions() {
				lo, hi := b.Range(rp)
				l.reduceNeed[rp] += (hi - lo) * opt.Rank
			}
		}
	}
	l.reduceNeed[0]++ // every map task's ‖E‖² record rides to partition 0
	l.blocking.Imbalance = 1
	if t.NNZ() > 0 {
		l.blocking.Imbalance = float64(maxBlock) * float64(p) / float64(t.NNZ())
	}
	return l
}

// refSplitNested is splitNested before it took the next cut mode's histogram
// in its cell pass and counted the blocks in the last one.
func refSplitNested(t *sptensor.Tensor, counts [][]int64, shape []int, uniform bool) []*TensorBlock {
	order, nnz := t.Order(), t.NNZ()
	cell := make([]int32, nnz) // the slab each entry has reached so far
	slabs := 1
	for n, pn := range shape {
		if pn == 1 {
			continue
		}
		dim := t.Dims[n]
		// hist[s·dim+i] counts slab s's non-zeros in mode-n row i, and
		// rangeOf[s·dim+i] is the range of slab s that row falls in.
		hist := counts[n]
		if slabs > 1 && !uniform {
			hist = make([]int64, slabs*dim)
			for e, s := range cell {
				hist[int(s)*dim+int(t.Idx[e*order+n])]++
			}
		}
		rangeOf := make([]int32, slabs*dim)
		for s := 0; s < slabs; s++ {
			var b part.Boundaries
			if uniform {
				b = part.Uniform(dim, pn)
			} else {
				b = part.Greedy(hist[s*dim:(s+1)*dim], pn)
			}
			for r := 0; r < b.NumPartitions(); r++ {
				lo, hi := b.Range(r)
				for i := lo; i < hi; i++ {
					rangeOf[s*dim+i] = int32(r)
				}
			}
		}
		for e, s := range cell {
			cell[e] = s*int32(pn) + rangeOf[int(s)*dim+int(t.Idx[e*order+n])]
		}
		slabs *= pn
	}

	// Count, then fill: every block's slabs are allocated once at their size.
	fill := make([]int, slabs)
	for _, c := range cell {
		fill[c]++
	}
	blocks := make([]*TensorBlock, slabs)
	for b := range blocks {
		blocks[b] = &TensorBlock{Order: order, Idx: make([]int32, fill[b]*order), Val: make([]float64, fill[b])}
		fill[b] = 0
	}
	for e, c := range cell {
		blk, k := blocks[c], fill[c]
		copy(blk.Idx[k*order:(k+1)*order], t.Idx[e*order:(e+1)*order])
		blk.Val[k] = t.Val[e]
		fill[c] = k + 1
	}
	return blocks
}

// refNeededRows is the per-mode marking pass the build used before it
// marked every mode of a block in one pass.
func refNeededRows(blk *TensorBlock, n int, local []int32) []int32 {
	order := blk.Order
	lo, hi, distinct := int32(math.MaxInt32), int32(-1), 0
	for e := n; e < len(blk.Idx); e += order {
		row := blk.Idx[e]
		if local[row] == 0 {
			local[row] = 1
			distinct++
			lo, hi = min(lo, row), max(hi, row)
		}
	}
	rows := make([]int32, 0, distinct)
	for row := lo; row <= hi; row++ {
		if local[row] != 0 {
			rows = append(rows, row)
			local[row] = int32(len(rows))
		}
	}
	return rows
}
