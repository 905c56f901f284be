// Package sptensor provides the sparse-tensor data structures and kernels
// the paper's algorithms are built on: an N-mode coordinate (COO) tensor,
// Kruskal-form evaluation, the row-wise MTTKRP of §III-C, and the residual
// tensor of §III-D. A small dense tensor type backs oracle tests.
package sptensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Tensor is an N-mode sparse tensor in coordinate (COO) format, the layout
// the paper's Spark implementation loads RDDs in (§III-F). Entry e has
// indices Idx[e*N : (e+1)*N] and value Val[e]. Entries are not required to be
// sorted; duplicates are not coalesced automatically (use Coalesce).
type Tensor struct {
	Dims []int // mode sizes I_1..I_N
	Idx  []int32
	Val  []float64
}

// New returns an empty tensor with the given mode sizes.
func New(dims ...int) *Tensor {
	d := make([]int, len(dims))
	copy(d, dims)
	return &Tensor{Dims: d}
}

// Order returns the number of modes N.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored entries.
func (t *Tensor) NNZ() int { return len(t.Val) }

// Index returns a view of the indices of entry e (length N, do not retain).
func (t *Tensor) Index(e int) []int32 {
	n := len(t.Dims)
	return t.Idx[e*n : (e+1)*n : (e+1)*n]
}

// Append adds an entry. idx is copied.
func (t *Tensor) Append(idx []int32, v float64) {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("sptensor: Append index arity %d on order-%d tensor", len(idx), len(t.Dims)))
	}
	for m, i := range idx {
		if int(i) < 0 || int(i) >= t.Dims[m] {
			panic(fmt.Sprintf("sptensor: index %d out of range for mode %d (size %d)", i, m, t.Dims[m]))
		}
	}
	t.Idx = append(t.Idx, idx...)
	t.Val = append(t.Val, v)
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Dims...)
	out.Idx = append([]int32(nil), t.Idx...)
	out.Val = append([]float64(nil), t.Val...)
	return out
}

// NormF returns the Frobenius norm over stored entries.
func (t *Tensor) NormF() float64 {
	var s float64
	for _, v := range t.Val {
		s += v * v
	}
	return math.Sqrt(s)
}

// ModeCounts returns, for each slice index i of mode n, the number of stored
// entries whose mode-n index is i — the θ^(n) histogram Algorithm 2 partitions
// on.
func (t *Tensor) ModeCounts(n int) []int64 {
	counts := make([]int64, t.Dims[n])
	order := len(t.Dims)
	for e := 0; e < len(t.Val); e++ {
		counts[t.Idx[e*order+n]]++
	}
	return counts
}

// Coalesce sorts entries lexicographically and merges duplicates by summing
// their values, dropping exact zeros. It returns the receiver.
func (t *Tensor) Coalesce() *Tensor {
	n := len(t.Dims)
	if t.NNZ() == 0 {
		return t
	}
	perm := make([]int, t.NNZ())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := t.Index(perm[a]), t.Index(perm[b])
		for m := 0; m < n; m++ {
			if ia[m] != ib[m] {
				return ia[m] < ib[m]
			}
		}
		return false
	})
	newIdx := make([]int32, 0, len(t.Idx))
	newVal := make([]float64, 0, len(t.Val))
	for _, e := range perm {
		idx := t.Index(e)
		if len(newVal) > 0 {
			last := newIdx[len(newIdx)-n:]
			same := true
			for m := 0; m < n; m++ {
				if last[m] != idx[m] {
					same = false
					break
				}
			}
			if same {
				newVal[len(newVal)-1] += t.Val[e]
				continue
			}
		}
		newIdx = append(newIdx, idx...)
		newVal = append(newVal, t.Val[e])
	}
	// Drop zeros produced by cancellation.
	outIdx := newIdx[:0]
	outVal := newVal[:0]
	for e := 0; e < len(newVal); e++ {
		if newVal[e] != 0 {
			outIdx = append(outIdx, newIdx[e*n:(e+1)*n]...)
			outVal = append(outVal, newVal[e])
		}
	}
	t.Idx = outIdx
	t.Val = outVal
	return t
}

// Dedupe sorts entries lexicographically and keeps the first of each run of
// duplicate coordinates (used by samplers: re-observing a cell must not
// change its value, unlike Coalesce's summing semantics for count data).
func (t *Tensor) Dedupe() *Tensor {
	n := len(t.Dims)
	if t.NNZ() == 0 {
		return t
	}
	perm := make([]int, t.NNZ())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := t.Index(perm[a]), t.Index(perm[b])
		for m := 0; m < n; m++ {
			if ia[m] != ib[m] {
				return ia[m] < ib[m]
			}
		}
		return false
	})
	newIdx := make([]int32, 0, len(t.Idx))
	newVal := make([]float64, 0, len(t.Val))
	for _, e := range perm {
		idx := t.Index(e)
		if len(newVal) > 0 {
			last := newIdx[len(newIdx)-n:]
			same := true
			for m := 0; m < n; m++ {
				if last[m] != idx[m] {
					same = false
					break
				}
			}
			if same {
				continue
			}
		}
		newIdx = append(newIdx, idx...)
		newVal = append(newVal, t.Val[e])
	}
	t.Idx = newIdx
	t.Val = newVal
	return t
}

// Split partitions the entries into a training tensor holding approximately
// (1-testFrac) of the entries and a test tensor holding the rest, sampled
// uniformly with rng. Both keep the original mode sizes.
func (t *Tensor) Split(testFrac float64, rng *rand.Rand) (train, test *Tensor) {
	train = New(t.Dims...)
	test = New(t.Dims...)
	for e := 0; e < t.NNZ(); e++ {
		if rng.Float64() < testFrac {
			test.Append(t.Index(e), t.Val[e])
		} else {
			train.Append(t.Index(e), t.Val[e])
		}
	}
	return train, test
}

// Validate checks structural invariants and returns an error describing the
// first violation found: every index in range for its mode and every value
// finite. The check runs mode by mode, one unsigned compare per index (a
// negative index is a huge unsigned one), then over the values in one loop;
// only a failure pays for the re-scan in entry order that names the first bad
// entry.
func (t *Tensor) Validate() error {
	n := len(t.Dims)
	if n == 0 {
		return fmt.Errorf("sptensor: zero-order tensor")
	}
	if len(t.Idx) != len(t.Val)*n {
		return fmt.Errorf("sptensor: index storage %d does not match %d entries of order %d", len(t.Idx), len(t.Val), n)
	}
	for m, d := range t.Dims {
		if d <= 0 {
			return fmt.Errorf("sptensor: mode %d has non-positive size %d", m, d)
		}
	}
	for m, d := range t.Dims {
		size := uint(d)
		for i := m; i < len(t.Idx); i += n {
			if uint(t.Idx[i]) >= size {
				return t.firstInvalid()
			}
		}
	}
	for _, v := range t.Val {
		if !(math.Abs(v) <= math.MaxFloat64) { // false for ±Inf and NaN
			return t.firstInvalid()
		}
	}
	return nil
}

// firstInvalid names the first entry, in entry order, with an index out of
// range or a non-finite value.
func (t *Tensor) firstInvalid() error {
	for e := 0; e < len(t.Val); e++ {
		for m, i := range t.Index(e) {
			if int(i) < 0 || int(i) >= t.Dims[m] {
				return fmt.Errorf("sptensor: entry %d mode %d index %d out of range [0,%d)", e, m, i, t.Dims[m])
			}
		}
		if math.IsNaN(t.Val[e]) || math.IsInf(t.Val[e], 0) {
			return fmt.Errorf("sptensor: entry %d has non-finite value %v", e, t.Val[e])
		}
	}
	return nil
}

// String summarizes the tensor.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(dims=%v, nnz=%d)", t.Dims, t.NNZ())
}
