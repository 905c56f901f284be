package sptensor

import (
	"fmt"
	"slices"

	"distenc/internal/cpu"
	"distenc/internal/mat"
)

// Kruskal is a rank-R Kruskal tensor [[A(1),…,A(N)]] (Eq. 3): the sum of R
// rank-one outer products, stored as N factor matrices A(n) ∈ ℝ^{I_n×R}.
type Kruskal struct {
	Factors []*mat.Dense
}

// NewKruskal validates and wraps factor matrices.
func NewKruskal(factors ...*mat.Dense) *Kruskal {
	if len(factors) == 0 {
		panic("sptensor: Kruskal needs at least one factor")
	}
	r := factors[0].Cols()
	for n, f := range factors {
		if f.Cols() != r {
			panic(fmt.Sprintf("sptensor: factor %d has rank %d, want %d", n, f.Cols(), r))
		}
	}
	return &Kruskal{Factors: factors}
}

// Rank returns R.
func (k *Kruskal) Rank() int { return k.Factors[0].Cols() }

// Dims returns the mode sizes.
func (k *Kruskal) Dims() []int {
	d := make([]int, len(k.Factors))
	for n, f := range k.Factors {
		d[n] = f.Rows()
	}
	return d
}

// At evaluates the Kruskal tensor at the given multi-index in O(N·R). It is
// the one-cell reference AtCells is held to bit for bit.
func (k *Kruskal) At(idx []int32) float64 {
	r := k.Rank()
	var s float64
	row0 := k.Factors[0].Row(int(idx[0]))
	for j := 0; j < r; j++ {
		p := row0[j]
		for n := 1; n < len(k.Factors); n++ {
			p *= k.Factors[n].At(int(idx[n]), j)
		}
		s += p
	}
	return s
}

// cellTile is the product slab of the Go body of AtCells in floats: 8 KB, a
// quarter of a 32 KB L1d, so a tile's partial products stay resident while
// the factor rows of its cells stream past them once per mode.
const cellTile = 1024

// vecChunk is the most cells one call of the AVX2 body covers: Go never
// preempts assembly, so it bounds how long a stop-the-world can wait (well
// under a ms).
const vecChunk = 4096

// AtCells evaluates k at the len(flat)/N cells of a flat row-major index
// block, N the order, appending one value per cell to out. The indices must
// be in range; AtCells panics otherwise, naming the first bad cell.
//
// At order 3, where the CPU has AVX2, the cells run through the assembly
// body of kruskal_amd64.s: a cell at a time, four ranks a step, each lane
// forming (A0[i,r]·A1[j,r])·A2[k,r] with every product rounded and the lanes
// summed into the value from +0 in ascending r — At's operations in At's
// order, so every value is bit-equal to it (DESIGN.md §5). While it works on
// cell c it prefetches the mode-0 and mode-1 rows of cell c+8, so many row
// misses are in flight at once. Every other order, -race builds, other CPUs
// and a test that sets cpu.GoBodies run the Go body, atCellsGo.
func (k *Kruskal) AtCells(flat []int32, out []float64) []float64 {
	order := len(k.Factors)
	if len(flat)%order != 0 {
		panic(fmt.Sprintf("sptensor: %d indices do not tile order %d", len(flat), order))
	}
	out = slices.Grow(out, len(flat)/order)
	if order == 3 && k.Rank() > 0 && hasVecCells && !cpu.GoBodies {
		return k.vecAtCells3(flat, out)
	}
	return k.atCellsGo(flat, out)
}

// vecAtCells3 runs the order-3 AVX2 body over flat a chunk of vecChunk cells
// at a time, writing into out's spare capacity.
func (k *Kruskal) vecAtCells3(flat []int32, out []float64) []float64 {
	f0, f1, f2 := k.Factors[0], k.Factors[1], k.Factors[2]
	r := f0.Cols()
	if f1.Cols() != r || f2.Cols() != r {
		panic(fmt.Sprintf("sptensor: factors of ranks %d/%d/%d", r, f1.Cols(), f2.Cols()))
	}
	n, count := len(out), len(flat)/3
	for lo := 0; lo < count; lo += vecChunk {
		hi := min(lo+vecChunk, count)
		if bad := atCells3AVX2(flat[3*lo:3*hi], out[n+lo:n+hi], f0.Data(), f1.Data(), f2.Data(), r, f0.Rows(), f1.Rows(), f2.Rows()); bad >= 0 {
			k.badCell(flat, lo+bad)
		}
	}
	return out[:n+count]
}

// badCell panics naming cell c of flat, one of whose indices is out of range.
func (k *Kruskal) badCell(flat []int32, c int) {
	order := len(k.Factors)
	panic(fmt.Sprintf("sptensor: cell %d has indices %v, out of range for dims %v", c, flat[c*order:(c+1)*order], k.Dims()))
}

// atCellsGo is the Go body of AtCells, every order. Cells are evaluated a
// tile of cellTile/R at a time and, within a tile, a mode at a time: the
// mode-0 rows are copied into the slab, the rows of modes 1…N−2 multiplied
// into it, and the last mode finishes each cell as s += p·v for j ascending.
// Those are the operations of At in its order — per j the product runs over
// the modes ascending, the sum over j ascending — so every value is
// bit-equal to it; what changes is that a tile's row loads are independent
// of one another and overlap, where a cell at a time each gather waits for
// the sum before it. A tile's indices are checked before any row is read.
func (k *Kruskal) atCellsGo(flat []int32, out []float64) []float64 {
	fs := k.Factors
	order := len(fs)
	count := len(flat) / order
	r := k.Rank()
	var stack [cellTile]float64
	slab := stack[:]
	if r > len(slab) {
		slab = make([]float64, r) // a tile of one cell
	}
	tile := len(slab) / r
	last := order - 1
	for c0 := 0; c0 < count; c0 += tile {
		nc := min(tile, count-c0)
		cells := flat[c0*order : (c0+nc)*order]
		for c := 0; c < nc; c++ {
			for n, f := range fs {
				if uint(cells[c*order+n]) >= uint(f.Rows()) {
					k.badCell(flat, c0+c)
				}
			}
		}
		prod := slab[:nc*r]
		if last == 0 {
			// Order 1 has no second mode to finish with: mode 0 finishes a
			// slab of ones, and 1·v is v.
			for j := range prod {
				prod[j] = 1
			}
		} else {
			for c := 0; c < nc; c++ {
				copy(prod[c*r:(c+1)*r], fs[0].Row(int(cells[c*order])))
			}
		}
		for n := 1; n < last; n++ {
			for c := 0; c < nc; c++ {
				row := fs[n].Row(int(cells[c*order+n]))
				p := prod[c*r:][:len(row)]
				//bce:begin
				for j, v := range row {
					p[j] *= v
				}
				//bce:end
			}
		}
		for c := 0; c < nc; c++ {
			row := fs[last].Row(int(cells[c*order+last]))
			p := prod[c*r:][:len(row)]
			var s float64
			//bce:begin
			for j, v := range row {
				s += float64(p[j] * v)
			}
			//bce:end
			out = append(out, s)
		}
	}
	return out
}

// AtEntries evaluates k at every stored cell of t through AtCells, a chunk of
// cellTile entries at a time in storage order, and hands each chunk's values
// to fn with the index of the chunk's first entry. A caller that folds the
// values in the order it receives them sums in storage order, bit for bit
// what a loop over At in storage order sums.
func (k *Kruskal) AtEntries(t *Tensor, fn func(e0 int, vals []float64)) {
	n := len(t.Dims)
	buf := make([]float64, 0, cellTile)
	for e0 := 0; e0 < t.NNZ(); e0 += cellTile {
		e1 := min(e0+cellTile, t.NNZ())
		fn(e0, k.AtCells(t.Idx[e0*n:e1*n], buf[:0]))
	}
}

// Clone deep-copies the factors.
func (k *Kruskal) Clone() *Kruskal {
	fs := make([]*mat.Dense, len(k.Factors))
	for n, f := range k.Factors {
		fs[n] = f.Clone()
	}
	return &Kruskal{Factors: fs}
}

// Residual returns E = Ω∗(T − [[A…]]) (Eq. 14): the sparse tensor over T's
// observed coordinates holding observation minus model. This is the object
// §III-D keeps instead of the completed dense tensor; it costs O(R·nnz).
func Residual(t *Tensor, k *Kruskal) *Tensor {
	out := New(t.Dims...)
	out.Idx = append([]int32(nil), t.Idx...)
	out.Val = make([]float64, t.NNZ())
	for e := 0; e < t.NNZ(); e++ {
		out.Val[e] = t.Val[e] - k.At(t.Index(e))
	}
	return out
}

// MTTKRP computes H = X_(n) · (A(N)⊙…⊙A(n+1)⊙A(n-1)⊙…⊙A(1)) row-wise
// (Eq. 10/11) without materializing the Khatri-Rao product: for every stored
// entry x at (i_1,…,i_N),
//
//	H[i_n, :] += x · ∗_{k≠n} A(k)[i_k, :].
//
// The result is I_n×R. scratch, if non-nil, must have length R and avoids a
// per-call allocation.
func MTTKRP(t *Tensor, factors []*mat.Dense, n int, scratch []float64) *mat.Dense {
	order := len(t.Dims)
	if len(factors) != order {
		panic(fmt.Sprintf("sptensor: MTTKRP got %d factors for order-%d tensor", len(factors), order))
	}
	r := factors[0].Cols()
	h := mat.NewDense(t.Dims[n], r)
	if scratch == nil {
		scratch = make([]float64, r)
	}
	if len(scratch) != r {
		panic("sptensor: MTTKRP scratch length must equal rank")
	}
	for e := 0; e < t.NNZ(); e++ {
		idx := t.Index(e)
		v := t.Val[e]
		for j := 0; j < r; j++ {
			scratch[j] = v
		}
		for k := 0; k < order; k++ {
			if k == n {
				continue
			}
			row := factors[k].Row(int(idx[k]))
			for j := 0; j < r; j++ {
				scratch[j] *= row[j]
			}
		}
		dst := h.Row(int(idx[n]))
		for j := 0; j < r; j++ {
			dst[j] += scratch[j]
		}
	}
	return h
}

// GramProduct returns U(n)ᵀU(n) = ∗_{k≠n} A(k)ᵀA(k) (Eq. 12) given the
// precomputed per-mode Gram matrices — the cached F_n of Algorithm 3 line 9.
func GramProduct(grams []*mat.Dense, n int) *mat.Dense {
	r := grams[0].Rows()
	out := mat.NewDense(r, r)
	GramProductInto(out, grams, n)
	return out
}

// GramProductInto is GramProduct into dst, an R×R matrix it overwrites.
func GramProductInto(dst *mat.Dense, grams []*mat.Dense, n int) {
	dst.Fill(1)
	for k, g := range grams {
		if k == n {
			continue
		}
		dst.HadamardInPlace(g)
	}
}

// MTTKRPFlops returns the floating point operation count of one row-wise
// MTTKRP call — 2·(N−1)·R multiplies plus R adds per stored entry — used by
// the Lemma 1 counter experiments.
func MTTKRPFlops(nnz, order, rank int) int64 {
	return int64(nnz) * int64(rank) * int64(2*(order-1)+1)
}
