package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrNotSPD is returned by Cholesky when the input is not symmetric positive
// definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense
}

// NewCholesky factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %d×%d", a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		ljj := math.Sqrt(d)
		lrowj[j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s / ljj
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// SolveVec solves A·x = b in place, overwriting b with x.
func (c *Cholesky) SolveVec(b []float64) {
	if len(b) != c.n {
		panic("mat: Cholesky SolveVec length mismatch")
	}
	// Forward substitution L·y = b.
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Back substitution Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * b[k]
		}
		b[i] = s / c.l.At(i, i)
	}
}

// Solve solves A·X = B and returns X as a new matrix.
func (c *Cholesky) Solve(b *Dense) *Dense {
	if b.rows != c.n {
		panic(dimErr("Cholesky.Solve", c.l, b))
	}
	out := b.T() // work column-by-column on contiguous rows of bᵀ
	for j := 0; j < b.cols; j++ {
		c.SolveVec(out.Row(j))
	}
	return out.T()
}

// LU holds a row-pivoted LU factorization P·A = L·U stored compactly.
type LU struct {
	n   int
	lu  *Dense
	piv []int
}

// NewLU factors a with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU of non-square %d×%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot.
		p, pmax := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		// Eliminate below.
		pivRow := lu.Row(k)
		inv := 1 / pivRow[k]
		for i := k + 1; i < n; i++ {
			row := lu.Row(i)
			m := row[k] * inv
			row[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				row[j] -= m * pivRow[j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv}, nil
}

// SolveVec solves A·x = b, returning x as a new slice.
func (f *LU) SolveVec(b []float64) []float64 {
	if len(b) != f.n {
		panic("mat: LU SolveVec length mismatch")
	}
	x := make([]float64, f.n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// L·y = Pb (unit diagonal).
	for i := 1; i < f.n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s
	}
	// U·x = y.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for k := i + 1; k < f.n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// Solve solves A·X = B and returns X.
func (f *LU) Solve(b *Dense) *Dense {
	if b.rows != f.n {
		panic(dimErr("LU.Solve", f.lu, b))
	}
	bt := b.T()
	out := NewDense(b.cols, f.n)
	for j := 0; j < b.cols; j++ {
		copy(out.Row(j), f.SolveVec(bt.Row(j)))
	}
	return out.T()
}

// SolveSPD solves the symmetric positive definite system A·X = B, falling
// back to LU if Cholesky fails (e.g. A only positive semi-definite after
// round-off). This is the path used for the R×R normal-equation solves in
// factor updates: (UᵀU + λI + ηI) is SPD by construction.
func SolveSPD(a, b *Dense) (*Dense, error) {
	if ch, err := NewCholesky(a); err == nil {
		return ch.Solve(b), nil
	}
	lu, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b), nil
}

// InverseSPD returns A⁻¹ for a symmetric positive definite A.
func InverseSPD(a *Dense) (*Dense, error) {
	return SolveSPD(a, Identity(a.rows))
}
