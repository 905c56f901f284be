package sptensor

import (
	"fmt"
	"math"

	"distenc/internal/mat"
)

// DenseTensor is a small fully materialized tensor used as an oracle in tests
// and by the deliberately memory-hungry TFAI baseline. Element (i_1,…,i_N)
// lives at offset Σ i_k·stride_k with stride_1 = 1 (column-major in the first
// mode, the layout matching the standard mode-n unfolding).
type DenseTensor struct {
	Dims    []int
	Data    []float64
	strides []int
}

// NewDenseTensor allocates a zeroed dense tensor.
func NewDenseTensor(dims ...int) *DenseTensor {
	size := 1
	strides := make([]int, len(dims))
	for k, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("sptensor: non-positive dim %d", d))
		}
		strides[k] = size
		size *= d
	}
	d := make([]int, len(dims))
	copy(d, dims)
	return &DenseTensor{Dims: d, Data: make([]float64, size), strides: strides}
}

func (d *DenseTensor) offset(idx []int32) int {
	off := 0
	for k, i := range idx {
		off += int(i) * d.strides[k]
	}
	return off
}

// At returns the element at idx.
func (d *DenseTensor) At(idx []int32) float64 { return d.Data[d.offset(idx)] }

// Set assigns v at idx.
func (d *DenseTensor) Set(idx []int32, v float64) { d.Data[d.offset(idx)] = v }

// Add accumulates v at idx.
func (d *DenseTensor) Add(idx []int32, v float64) { d.Data[d.offset(idx)] += v }

// FromKruskal materializes the Kruskal tensor densely (exponential in N —
// oracle/test use only).
func FromKruskal(k *Kruskal) *DenseTensor {
	dims := k.Dims()
	d := NewDenseTensor(dims...)
	idx := make([]int32, len(dims))
	for off := range d.Data {
		rem := off
		for m := range dims {
			idx[m] = int32(rem % dims[m])
			rem /= dims[m]
		}
		d.Data[off] = k.At(idx)
	}
	return d
}

// Matricize returns the mode-n unfolding X_(n) ∈ ℝ^{I_n×Π_{k≠n}I_k}
// (Definition 2.1.5), with columns ordered by the remaining modes in
// increasing mode order (the standard Kolda convention).
func (d *DenseTensor) Matricize(n int) *mat.Dense {
	rows := d.Dims[n]
	cols := 1
	for k, dim := range d.Dims {
		if k != n {
			cols *= dim
		}
	}
	out := mat.NewDense(rows, cols)
	idx := make([]int32, len(d.Dims))
	for off, v := range d.Data {
		rem := off
		for m := range d.Dims {
			idx[m] = int32(rem % d.Dims[m])
			rem /= d.Dims[m]
		}
		col := 0
		stride := 1
		for k, dim := range d.Dims {
			if k == n {
				continue
			}
			col += int(idx[k]) * stride
			stride *= dim
		}
		out.Set(int(idx[n]), col, v)
	}
	return out
}

// NormF returns the Frobenius norm.
func (d *DenseTensor) NormF() float64 {
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
