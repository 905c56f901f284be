package mat

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds a symmetric eigendecomposition A = V·diag(Values)·Vᵀ.
// Values are sorted ascending; column j of Vectors is the eigenvector for
// Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Dense // n×k, columns are eigenvectors
}

// SymEigen computes the full eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. Only suitable for moderate n (the exact
// path for small mode sizes); for large Laplacians use Lanczos.
func SymEigen(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: SymEigen of non-square %d×%d", a.rows, a.cols)
	}
	n := a.rows
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			row := w.Row(i)
			for j := i + 1; j < n; j++ {
				off += row[j] * row[j]
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Update rows/cols p and q of w.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate rotations into v.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	// Extract and sort ascending.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	sortedVals := make([]float64, n)
	vec := NewDense(n, n)
	for newJ, oldJ := range idx {
		sortedVals[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			vec.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return &Eigen{Values: sortedVals, Vectors: vec}, nil
}
