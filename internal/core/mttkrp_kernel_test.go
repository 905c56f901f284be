package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/synth"
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

// namedKernel is one body fusedBlockMTTKRP dispatches to.
type namedKernel struct {
	name   string
	kernel blockKernel
}

// kernelBodies lists the bodies an order-N block can run on this host: the
// portable kernel always, and at order 3 the AVX2 one where the build and
// CPU have it.
func kernelBodies(order int) []namedKernel {
	ks := []namedKernel{{"portable", portableBlockMTTKRP}}
	if order == 3 && hasVecKernel {
		ks = append(ks, namedKernel{"avx2", vecBlockMTTKRP3})
	}
	return ks
}

// TestFusedKernelMatchesReferenceBits holds every body of fusedBlockMTTKRP
// to the plain formulation's bits — every accumulator slab and the returned
// ‖E‖² — at orders 1–5 and ranks 1–10, 16, 17 and 32 (every tail length of
// the four-lane body), over uncoalesced tensors whose sorted blocks contain
// every first-differing mode 0…N (N = a duplicate entry), with each task's
// entries cut into a single-entry block, an empty block and two more so the
// loc offsets are exercised. At order 3 the two larger blocks each span a
// boundary between the AVX2 body's calls (vecChunk, 4 096 entries).
func TestFusedKernelMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(231, 232))
	for order := 1; order <= 5; order++ {
		dims, nnz := []int{4, 3, 3, 2, 3}[:order], 60*order
		if order == 3 {
			dims, nnz = []int{40, 30, 30}, 5*4096
		}
		ts := randomTensor(dims, nnz, rng)
		for e := 0; e < 10; e++ { // exact duplicates, whatever the draw gave
			ts.Append(ts.Index(e), rng.NormFloat64())
		}
		for _, rank := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 32} {
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
				// Every side accumulates onto the same non-zero slabs: a store
				// in place of an add, or a row hit twice, cannot hide behind 0 + x.
				start := make([][]float64, order)
				for n := range start {
					start[n] = make([]float64, len(l.neededRows[p][n])*rank)
					for i := range start[n] {
						start[n][i] = rng.NormFloat64()
					}
				}
				want := cloneSlabs(start)
				wantNorm := kernelTask(refBlockMTTKRP, blocks, loc, factors, rank, want, newFusedScratch(order+1, rank))
				for _, k := range kernelBodies(order) {
					got := cloneSlabs(start)
					gotNorm := kernelTask(k.kernel, blocks, loc, factors, rank, got, newFusedScratch(order, rank))
					name := fmt.Sprintf("%s kernel, order %d rank %d block %d", k.name, order, rank, p)
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
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Fatalf("order %d: no entry in any block first differs from its predecessor at mode %d; the tensor does not cover the case", order, i)
			}
		}
	}
}

func cloneSlabs(slabs [][]float64) [][]float64 {
	out := make([][]float64, len(slabs))
	for n, s := range slabs {
		out[n] = slices.Clone(s)
	}
	return out
}

// TestFusedKernelPanicsOnBadIDs feeds every body an order-3 block whose last
// entry has one id out of range — a row id or a local id, one past the end
// or negative, in each mode — or a factor one column short of the rank. Each
// body must panic, the AVX2 one naming the entry, and none may write past a
// slab: every slab is followed in its backing array by a guard row the
// kernel must leave alone. The probe sits in the AVX2 body's second call.
func TestFusedKernelPanicsOnBadIDs(t *testing.T) {
	const rank = 5 // one four-lane step and a tail
	dims := []int{4, 3, 5}
	var idx []int32
	var val []float64
	for range 4096 { // vecChunk entries, all valid
		idx, val = append(idx, 0, 1, 2), append(val, 1)
	}
	idx = append(idx, 0, 2, 2, 3, 2, 4) // two more, the last one the probe
	val = append(val, -2, 3)
	probe := 3 * (len(val) - 1)
	type edit struct {
		name  string
		apply func(idx, loc []int32, factors []*mat.Dense)
	}
	var edits []edit
	for n := range dims {
		for _, bad := range []int32{int32(dims[n]), -1} {
			edits = append(edits,
				edit{fmt.Sprintf("mode-%d row id %d", n, bad), func(idx, _ []int32, _ []*mat.Dense) { idx[probe+n] = bad }},
				edit{fmt.Sprintf("mode-%d local id %d", n, bad), func(_, loc []int32, _ []*mat.Dense) { loc[probe+n] = bad }})
		}
	}
	edits = append(edits, edit{"factor 1 one column short", func(_, _ []int32, factors []*mat.Dense) {
		factors[1] = mat.NewDense(dims[1], rank-1)
	}})
	rng := rand.New(rand.NewPCG(5, 6))
	for _, k := range kernelBodies(3) {
		for _, ed := range edits {
			blkIdx, loc := slices.Clone(idx), slices.Clone(idx)
			factors := randomFactors(dims, rank, rng)
			ed.apply(blkIdx, loc, factors)
			backing := make([][]float64, len(dims))
			acc := make([][]float64, len(dims))
			for n, d := range dims {
				backing[n] = make([]float64, (d+1)*rank)
				for i := range backing[n] {
					backing[n][i] = 7
				}
				acc[n] = backing[n][: d*rank : d*rank]
			}
			blk := &TensorBlock{Order: 3, Idx: blkIdx, Val: val}
			msg, panicked := catchPanic(func() { k.kernel(blk, loc, factors, rank, acc, newFusedScratch(3, rank)) })
			name := k.name + " kernel, " + ed.name
			if !panicked {
				t.Errorf("%s: no panic", name)
			}
			if want := fmt.Sprintf("block entry %d ", len(val)-1); k.name == "avx2" && strings.HasPrefix(ed.name, "mode") && !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not name entry %d", name, msg, len(val)-1)
			}
			for n, d := range dims {
				for _, v := range backing[n][d*rank:] {
					if v != 7 {
						t.Fatalf("%s: the guard row after the mode-%d slab was written: %v", name, n, backing[n][d*rank:])
					}
				}
			}
		}
	}
}

// catchPanic runs f and reports the value it panicked with, if it did.
func catchPanic(f func()) (msg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, panicked = fmt.Sprint(r), true
		}
	}()
	f()
	return "", false
}

// TestVectorKernelSolvesBitIdentically runs the serial and the distributed
// solver on the AVX2 bodies and then, through cpu.GoBodies, on the Go ones
// (kernel, row algebra, B-step and initial scale alike): the factors must be
// the same bits, so which bodies a host runs never shows in a result.
func TestVectorKernelSolvesBitIdentically(t *testing.T) {
	if !hasVecKernel {
		t.Skip("this build or CPU has no vector kernel")
	}
	d := synth.LinearFactorDataset([]int{30, 25, 20}, 3, 3000, 17)
	opt := Options{Rank: 10, MaxIter: 4, Tol: -1, Seed: 18}
	solve := func() (serial, dist []*mat.Dense) {
		s, err := Complete(d.Tensor, d.Sims, opt)
		if err != nil {
			t.Fatal(err)
		}
		c := rdd.MustNewCluster(rdd.Config{Machines: 3})
		defer c.Close()
		r, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opt, GridPartition: true})
		if err != nil {
			t.Fatal(err)
		}
		return s.Model.Factors, r.Model.Factors
	}
	vs, vd := solve() // the dispatch's default here: the AVX2 bodies
	useGoBodies(t, true)
	ps, pd := solve()
	assertBitIdentical(t, "serial, avx2 vs Go bodies", ps, vs)
	assertBitIdentical(t, "distributed, avx2 vs Go bodies", pd, vd)
}

// fuzzSpecials are the finite values FuzzFusedKernel mixes into its blocks:
// signed zeros, subnormals, the smallest normal and magnitudes whose
// products overflow to ±Inf or underflow to zero.
var fuzzSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1, -1, 1e300, -1e300, 1e-300, math.MaxFloat64}

// FuzzFusedKernel holds every body of the order-3 kernel to the plain
// formulation on fuzzer-built blocks: rank 1–33, modes of 1–6 rows so
// duplicates and shared fibers are common, entries in the fuzzer's order
// (the reuse compares each entry with its predecessor, sorted or not), and
// finite values — the ones Tensor.Validate admits — with fuzzSpecials mixed
// in. Every slab and ‖E‖² must agree in Float64bits. CI runs it for a
// 30-second smoke.
func FuzzFusedKernel(f *testing.F) {
	f.Add(uint8(9), []byte{3, 2, 4, 0, 0, 0, 20, 0, 0, 0, 1, 0, 1, 0, 30, 1, 1, 1, 8, 1, 1, 1, 8})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(32), []byte{5, 5, 5, 1, 2, 3, 40, 1, 2, 4, 11, 2, 2, 4, 9, 2, 2, 4, 3, 0, 5, 1, 12})
	f.Fuzz(func(t *testing.T, rankByte uint8, data []byte) {
		if len(data) < 3 {
			return
		}
		rank := 1 + int(rankByte)%33
		dims := []int{1 + int(data[0])%6, 1 + int(data[1])%6, 1 + int(data[2])%6}
		rng := rand.New(rand.NewPCG(uint64(len(data)), uint64(rankByte)))
		value := func(sel int) float64 {
			if sel < len(fuzzSpecials) {
				return fuzzSpecials[sel]
			}
			return rng.NormFloat64()
		}
		blk := &TensorBlock{Order: 3}
		for e := data[3:]; len(e) >= 4 && len(blk.Val) < 256; e = e[4:] {
			for n, d := range dims {
				blk.Idx = append(blk.Idx, int32(int(e[n])%d))
			}
			blk.Val = append(blk.Val, value(int(e[3])))
		}
		factors := make([]*mat.Dense, len(dims))
		start := make([][]float64, len(dims))
		for n, d := range dims {
			factors[n] = mat.NewDense(d, rank)
			for i := range factors[n].Data() {
				factors[n].Data()[i] = value(rng.IntN(4 * len(fuzzSpecials)))
			}
			start[n] = make([]float64, d*rank)
			for i := range start[n] {
				start[n][i] = value(rng.IntN(4 * len(fuzzSpecials)))
			}
		}
		want := cloneSlabs(start)
		wantNorm := refBlockMTTKRP(blk, blk.Idx, factors, rank, want, newFusedScratch(4, rank))
		for _, k := range kernelBodies(3) {
			got := cloneSlabs(start)
			gotNorm := k.kernel(blk, blk.Idx, factors, rank, got, newFusedScratch(3, rank))
			if math.Float64bits(gotNorm) != math.Float64bits(wantNorm) {
				t.Fatalf("%s kernel, rank %d: ‖E‖² = %v (%#x), reference %v (%#x)", k.name, rank, gotNorm, math.Float64bits(gotNorm), wantNorm, math.Float64bits(wantNorm))
			}
			for n := range got {
				for i := range got[n] {
					if math.Float64bits(got[n][i]) != math.Float64bits(want[n][i]) {
						t.Fatalf("%s kernel, rank %d: mode-%d slab[%d] = %v (%#x), reference %v (%#x)", k.name, rank, n, i,
							got[n][i], math.Float64bits(got[n][i]), want[n][i], math.Float64bits(want[n][i]))
					}
				}
			}
		}
	})
}
