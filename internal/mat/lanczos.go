package mat

import (
	"fmt"
	"math"
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

// dgks is the Daniel–Gragg–Kaufman–Stewart threshold ARPACK uses: a
// Gram–Schmidt pass that leaves w with less than 1/√2 of its norm has
// cancelled enough for its own rounding to matter, and is repeated once.
const dgks = 1 / math.Sqrt2

// Lanczos computes the k eigenpairs of the symmetric operator op with the
// smallest eigenvalues, using the Lanczos iteration with full
// reorthogonalization followed by a dense solve of the tridiagonal problem.
// steps controls the Krylov dimension; steps ≤ 0 picks min(n, 2k+30).
//
// Each step reorthogonalizes against the whole basis by classical
// Gram–Schmidt (h = V·w, then w −= Vᵀ·h, both blocked four basis rows per
// sweep over w) and repeats the pass only when the DGKS test says the first
// one cancelled. The factorization stops early at an invariant subspace,
// judged relative to a running estimate of ‖T‖ so the test does not depend
// on the operator's scale. Residuals[j] is the Ritz residual
// ‖A·y_j − θ_j·y_j‖ = β_m·|s_{m,j}|, free from the last step.
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
	h := make([]float64, steps)    // Gram–Schmidt coefficients of one step

	v := basis.Row(0)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	Normalize(v)

	w := make([]float64, n)
	m := steps
	// tnorm is max_j |α_j| + β_{j−1} ≈ ‖T‖; last is the final β, the scale of
	// every Ritz residual.
	var tnorm, last float64
	for j := 0; j < steps; j++ {
		vj := basis.Row(j)
		op.Apply(w, vj)
		var prev float64 // β_{j−1}
		if j > 0 {
			prev = beta[j-1]
			Axpy(-prev, basis.Row(j-1), w)
		}
		alpha[j] = Dot(w, vj)
		Axpy(-alpha[j], vj, w)
		tnorm = max(tnorm, math.Abs(alpha[j])+prev)
		last = reorthogonalize(w, basis.Data()[:(j+1)*n], h[:j+1])
		if j == steps-1 {
			break
		}
		if last <= 1e-12*tnorm {
			// Invariant subspace found early; truncate the factorization.
			m = j + 1
			break
		}
		beta[j] = last
		next := basis.Row(j + 1)
		copy(next, w)
		ScaleVec(1/last, next)
	}

	// Dense solve of the m×m tridiagonal T. SymEigen's stopping test is
	// absolute, so it gets T scaled by the power of two nearest 1/‖T‖ —
	// exact in floating point, and the same rotations at any operator scale.
	scale := 1.0
	if tnorm > 0 {
		scale = math.Ldexp(1, -math.Ilogb(tnorm))
	}
	t := NewDense(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, scale*alpha[i])
		if i+1 < m {
			t.Set(i, i+1, scale*beta[i])
			t.Set(i+1, i, scale*beta[i])
		}
	}
	te, err := SymEigen(t)
	if err != nil {
		return nil, err
	}
	if k > m {
		k = m
	}
	vals := make([]float64, k)
	res := make([]float64, k)
	for j := range vals {
		vals[j] = te.Values[j] / scale
		res[j] = last * math.Abs(te.Vectors.At(m-1, j))
	}
	return &Eigen{Values: vals, Vectors: ritzVectors(basis, te.Vectors, m, k), Residuals: res}, nil
}

// reorthogonalize removes from w its components along the rows of basis
// (len(h) rows of len(w), orthonormal) by classical Gram–Schmidt and returns
// ‖w‖ after. A second pass runs only when the first left less than dgks of
// the norm w came in with; twice is enough.
func reorthogonalize(w, basis, h []float64) float64 {
	norm := Norm2(w)
	for pass := 0; pass < 2; pass++ {
		in := norm
		dotRows(h, w, basis)
		for i := range h {
			h[i] = -h[i]
		}
		AxpyRows(w, h, basis)
		norm = Norm2(w)
		if norm >= dgks*in {
			break
		}
	}
	return norm
}

// dotRows sets h[k] = Σ_e b[k·n+e]·x[e] with n = len(x): a row-major
// len(h)×n matrix times x. Four rows share each sweep over x with their sums
// in four registers, so four add-latency chains overlap instead of running
// one after another; each sum still runs in ascending e, so h[k] equals
// Dot(row k, x) bit for bit. The inner loop carries no bounds checks
// (scripts/check_bce.sh keeps it so).
func dotRows(h, x, b []float64) {
	n := len(x)
	k := 0
	for ; k+4 <= len(h); k += 4 {
		b0 := b[k*n : (k+1)*n][:len(x)]
		b1 := b[(k+1)*n : (k+2)*n][:len(x)]
		b2 := b[(k+2)*n : (k+3)*n][:len(x)]
		b3 := b[(k+3)*n : (k+4)*n][:len(x)]
		var s0, s1, s2, s3 float64
		//bce:begin
		for e, xv := range x {
			s0 += float64(b0[e] * xv)
			s1 += float64(b1[e] * xv)
			s2 += float64(b2[e] * xv)
			s3 += float64(b3[e] * xv)
		}
		//bce:end
		h[k], h[k+1], h[k+2], h[k+3] = s0, s1, s2, s3
	}
	for ; k < len(h); k++ {
		h[k] = Dot(b[k*n:(k+1)*n], x)
	}
}

// ritzVectors returns the n×k Ritz vectors Vᵀ·S: column j is
// Σ_{i<m} s[i][j]·(basis row i), summed in ascending i as a column-at-a-time
// Axpy would, in one product over the basis.
func ritzVectors(basis, s *Dense, m, k int) *Dense {
	sk := NewDense(m, k)
	for i := 0; i < m; i++ {
		copy(sk.Row(i), s.Row(i)[:k])
	}
	n := basis.Cols()
	return MulATB(NewDenseData(m, n, basis.Data()[:m*n]), sk)
}
