package mat

import (
	"fmt"
	"math/rand/v2"
)

// MatVec is any linear operator y = A·x on ℝⁿ. Sparse Laplacians implement
// it in O(nnz); that is what gives the truncated decomposition its O(K·I)
// application cost (the property the paper gets from the Bientinesi et al.
// eigensolver).
type MatVec interface {
	Dim() int
	Apply(dst, x []float64)
}

// Lanczos computes the k eigenpairs of the symmetric operator op with the
// smallest eigenvalues, using the Lanczos iteration with full
// reorthogonalization followed by a dense solve of the tridiagonal problem.
// steps controls the Krylov dimension; steps ≤ 0 picks min(n, 2k+30).
//
// This is the reproduction's substitute for the truncated MRRR eigensolver
// the paper cites (§III-B): same interface (L ≈ V Λ Vᵀ with V n×k), same
// asymptotic application cost.
func Lanczos(op MatVec, k, steps int, rng *rand.Rand) (*Eigen, error) {
	n := op.Dim()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("mat: Lanczos k=%d out of range for n=%d", k, n)
	}
	if steps <= 0 {
		steps = 2*k + 30
	}
	if steps > n {
		steps = n
	}
	if steps < k {
		steps = k
	}

	// Krylov basis, one row per Lanczos vector (rows are contiguous).
	basis := NewDense(steps, n)
	alpha := make([]float64, steps)
	beta := make([]float64, steps) // beta[j] couples v_j and v_{j+1}

	v := basis.Row(0)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	Normalize(v)

	w := make([]float64, n)
	m := steps
	for j := 0; j < steps; j++ {
		vj := basis.Row(j)
		op.Apply(w, vj)
		if j > 0 {
			Axpy(-beta[j-1], basis.Row(j-1), w)
		}
		alpha[j] = Dot(w, vj)
		Axpy(-alpha[j], vj, w)
		// Full reorthogonalization: twice is enough.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= j; i++ {
				bi := basis.Row(i)
				Axpy(-Dot(w, bi), bi, w)
			}
		}
		b := Norm2(w)
		if j == steps-1 {
			break
		}
		if b < 1e-12 {
			// Invariant subspace found early; truncate the factorization.
			m = j + 1
			break
		}
		beta[j] = b
		next := basis.Row(j + 1)
		copy(next, w)
		ScaleVec(1/b, next)
	}

	// Dense solve of the m×m tridiagonal T.
	t := NewDense(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, alpha[i])
		if i+1 < m {
			t.Set(i, i+1, beta[i])
			t.Set(i+1, i, beta[i])
		}
	}
	te, err := SymEigen(t)
	if err != nil {
		return nil, err
	}
	if k > m {
		k = m
	}
	// Ritz vectors: columns of basisᵀ·S for the k smallest Ritz values.
	vec := NewDense(n, k)
	for j := 0; j < k; j++ {
		col := make([]float64, n)
		for i := 0; i < m; i++ {
			Axpy(te.Vectors.At(i, j), basis.Row(i), col)
		}
		for i := 0; i < n; i++ {
			vec.Set(i, j, col[i])
		}
	}
	vals := make([]float64, k)
	copy(vals, te.Values[:k])
	return &Eigen{Values: vals, Vectors: vec}, nil
}
