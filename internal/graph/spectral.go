package graph

import (
	"fmt"
	"math/rand/v2"

	"distenc/internal/mat"
)

// Spectral is the pre-computed (once, before the ADMM loop) truncated
// eigendecomposition L ≈ V Λ Vᵀ of a mode's Laplacian (§III-B). With it the
// per-iteration update
//
//	B ← (ηI + αL)⁻¹ (ηA − Y)                          (Algorithm 1 line 4)
//
// becomes Eq. (7)'s right-to-left product
//
//	B ← V (η + αΛ)⁻¹ (Vᵀ (ηA − Y)),
//
// a diagonal rescale in the eigenbasis costing O(I·K·R) instead of an O(I³)
// factorization every time η changes.
type Spectral struct {
	Values  []float64 // ascending eigenvalues λ_1..λ_K
	Vectors *mat.Dense
	n       int
	full    bool // K == n: the decomposition is exact
}

// ExactSpectral eigendecomposes the Laplacian densely (Jacobi); use for small
// modes and as the oracle in tests.
func ExactSpectral(l *Laplacian) (*Spectral, error) {
	e, err := mat.SymEigen(l.Dense())
	if err != nil {
		return nil, err
	}
	return &Spectral{Values: e.Values, Vectors: e.Vectors, n: l.Dim(), full: true}, nil
}

// TruncatedSpectral computes the K smallest eigenpairs with Lanczos — the
// substitute for the paper's MRRR-based truncated eigensolver. If k ≥ n the
// result is exact.
func TruncatedSpectral(l *Laplacian, k int, rng *rand.Rand) (*Spectral, error) {
	n := l.Dim()
	if k >= n {
		return ExactSpectral(l)
	}
	if k <= 0 {
		return nil, fmt.Errorf("graph: truncation rank %d must be positive", k)
	}
	e, err := mat.Lanczos(l, k, 0, rng)
	if err != nil {
		return nil, err
	}
	return &Spectral{Values: e.Values, Vectors: e.Vectors, n: n, full: false}, nil
}

// Rank returns the number of retained eigenpairs K.
func (s *Spectral) Rank() int { return len(s.Values) }

// Dim returns the mode size I_n.
func (s *Spectral) Dim() int { return s.n }

// InverseApply returns (ηI + αL)⁻¹·X computed right-to-left per Eq. (7).
//
// With the exact decomposition this is V·diag(1/(η+αλ))·(VᵀX). With a
// truncated one, L is approximated by its rank-K spectral truncation and the
// Woodbury identity gives
//
//	(ηI + αV_KΛ_KV_Kᵀ)⁻¹ = I/η + V_K [ (η+αΛ_K)⁻¹ − I/η ] V_Kᵀ,
//
// which remains an O(I·K·R) computation.
func (s *Spectral) InverseApply(alpha, eta float64, x *mat.Dense) *mat.Dense {
	if x.Rows() != s.n {
		panic(fmt.Sprintf("graph: InverseApply on %d rows, want %d", x.Rows(), s.n))
	}
	// W = Vᵀ X  (K×R) — the "last two matrices first" ordering of Eq. (7) —
	// rescaled in the eigenbasis.
	w := mat.MulATB(s.Vectors, x)
	for i, lam := range s.Values {
		scale := 1 / (eta + alpha*lam)
		if !s.full {
			scale -= 1 / eta
		}
		row := w.Row(i)
		for j := range row {
			row[j] *= scale
		}
	}
	// One pass over the output: each row is X/η + V·W (just V·W when exact),
	// written once.
	out := mat.NewDense(x.Dims())
	if s.full {
		mat.MulInto(out, s.Vectors, w)
	} else {
		mat.MulAddInto(out, 1/eta, x, s.Vectors, w)
	}
	return out
}

// InverseApplyLeftToRight computes the same quantity in the wasteful
// left-to-right order of Eq. (6): it first materializes the I×I matrix
// V·diag·Vᵀ and then multiplies. Kept only for the FLOP-ordering ablation
// (design choice A5 in DESIGN.md).
func (s *Spectral) InverseApplyLeftToRight(alpha, eta float64, x *mat.Dense) *mat.Dense {
	scaled := s.Vectors.Clone()
	n, k := scaled.Dims()
	for i := 0; i < n; i++ {
		row := scaled.Row(i)
		for j := 0; j < k; j++ {
			if s.full {
				row[j] /= eta + alpha*s.Values[j]
			} else {
				row[j] *= 1/(eta+alpha*s.Values[j]) - 1/eta
			}
		}
	}
	inv := mat.MulABT(scaled, s.Vectors) // I×I materialization
	if !s.full {
		for i := 0; i < n; i++ {
			inv.Add(i, i, 1/eta)
		}
	}
	return mat.Mul(inv, x)
}

// DirectInverseApply solves (ηI + αL)·B = X with a fresh dense factorization
// — what a naive implementation pays every iteration as η changes. Kept for
// the trace-regularization ablation (design choice A1).
func DirectInverseApply(l *Laplacian, alpha, eta float64, x *mat.Dense) (*mat.Dense, error) {
	a := l.Dense().Scale(alpha)
	for i := 0; i < a.Rows(); i++ {
		a.Add(i, i, eta)
	}
	return mat.SolveSPD(a, x)
}
