// Package mat implements the dense linear algebra kernels DisTenC relies on:
// a row-major dense matrix type with BLAS-like operations, Cholesky and LU
// factorizations for the small R×R and In×In solves that appear in the ADMM
// updates, a cyclic Jacobi eigensolver for exact symmetric eigendecomposition,
// and a Lanczos iteration for the truncated eigendecomposition of graph
// Laplacians (the substitute for the MRRR solver cited by the paper).
//
// Everything is float64 and stdlib-only. Matrices are small enough in this
// reproduction (R ≤ 500, mode sizes up to a few thousand for exact eigen)
// that cache-blocked kernels are unnecessary; the hot loops are still written
// to stride rows contiguously.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. The zero value is an empty 0×0 matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len rows*cols, row-major
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a mutable view of row i (no copy).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols] }

// Data returns the backing row-major slice (no copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled adds s*b to m element-wise in place and returns m.
func (m *Dense) AddScaled(s float64, b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(dimErr("AddScaled", m, b))
	}
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return m
}

// AddMat returns a+b as a new matrix.
func AddMat(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("AddMat", a, b))
	}
	out := a.Clone()
	return out.AddScaled(1, b)
}

// SubMat returns a-b as a new matrix.
func SubMat(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("SubMat", a, b))
	}
	out := a.Clone()
	return out.AddScaled(-1, b)
}

// HadamardInPlace sets m = m∗b and returns m.
func (m *Dense) HadamardInPlace(b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(dimErr("HadamardInPlace", m, b))
	}
	for i, v := range b.data {
		m.data[i] *= v
	}
	return m
}

// Mul returns a·b as a new matrix.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(dimErr("Mul", a, b))
	}
	out := NewDense(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a·b. dst must be pre-sized and must not alias a or b.
func MulInto(dst, a, b *Dense) { MulAddInto(dst, 0, nil, a, b) }

// MulAddInto computes dst = s·c + a·b in one pass over dst: each output row
// is seeded from c's row (or zero when c is nil), accumulated while it sits
// in cache, and written once. dst may alias c but not a or b.
func MulAddInto(dst *Dense, s float64, c, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(dimErr("MulAddInto", a, b))
	}
	if c != nil && (c.rows != dst.rows || c.cols != dst.cols) {
		panic(dimErr("MulAddInto", dst, c))
	}
	n := b.cols
	for i := 0; i < a.rows; i++ {
		drow := dst.data[i*n : (i+1)*n]
		if c == nil {
			clear(drow)
		} else {
			for j, cv := range c.data[i*n : (i+1)*n] {
				drow[j] = s * cv
			}
		}
		axpyRows(drow, a.Row(i), b.data)
	}
}

// axpyRows accumulates dst += Σ_k x[k]·b[k·n : (k+1)·n] with n = len(dst):
// one row of a matrix product in ikj order. Four b rows are consumed per
// sweep with their multipliers held in registers, so dst is loaded and
// stored once per four multiply-adds instead of once per one; the additions
// still happen in ascending k, so the result is bit-identical to the plain
// one-row-at-a-time loop. The inner loops carry no bounds checks
// (scripts/check_bce.sh keeps it so).
func axpyRows(dst, x, b []float64) {
	n := len(dst)
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		b0 := b[k*n : (k+1)*n][:len(dst)]
		b1 := b[(k+1)*n : (k+2)*n][:len(dst)]
		b2 := b[(k+2)*n : (k+3)*n][:len(dst)]
		b3 := b[(k+3)*n : (k+4)*n][:len(dst)]
		//bce:begin
		for j := range dst {
			dst[j] = dst[j] + x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
		}
		//bce:end
	}
	for ; k < len(x); k++ {
		xv := x[k]
		brow := b[k*n : (k+1)*n][:len(dst)]
		//bce:begin
		for j := range dst {
			dst[j] += xv * brow[j]
		}
		//bce:end
	}
}

// MulATB returns aᵀ·b as a new matrix without forming aᵀ. Like axpyRows it
// folds four rows of a and b into the (small, cache-resident) result per
// sweep, in ascending row order, so the sums match the one-row-at-a-time
// loop bit for bit.
func MulATB(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(dimErr("MulATB", a, b))
	}
	out := NewDense(a.cols, b.cols)
	n := b.cols
	k := 0
	for ; k+4 <= a.rows; k += 4 {
		a0 := a.Row(k)
		a1, a2, a3 := a.Row(k + 1)[:len(a0)], a.Row(k + 2)[:len(a0)], a.Row(k + 3)[:len(a0)]
		b0 := b.Row(k)
		b1, b2, b3 := b.Row(k + 1)[:len(b0)], b.Row(k + 2)[:len(b0)], b.Row(k + 3)[:len(b0)]
		for i := range a0 {
			x0, x1, x2, x3 := a0[i], a1[i], a2[i], a3[i]
			drow := out.data[i*n : (i+1)*n][:len(b0)]
			//bce:begin
			for j := range drow {
				drow[j] = drow[j] + x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
			}
			//bce:end
		}
	}
	for ; k < a.rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			axpyRows(out.data[i*n:(i+1)*n], []float64{av}, brow)
		}
	}
	return out
}

// MulABT returns a·bᵀ as a new matrix without forming bᵀ.
func MulABT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(dimErr("MulABT", a, b))
	}
	out := NewDense(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		drow := out.Row(i)
		for j := 0; j < b.rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// Gram returns aᵀ·a (the R×R self-product the paper distributes in Eq. 13).
func Gram(a *Dense) *Dense { return MulATB(a, a) }

// MulVec returns a·x as a new vector.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec %d×%d by vec %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// NormF returns the Frobenius norm of m.
func (m *Dense) NormF() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_ij |a_ij − b_ij|.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("MaxAbsDiff", a, b))
	}
	var mx float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// KhatriRao returns the column-wise Kronecker product a⊙b (Definition 2.1.3).
// a is I×R and b is K×R; the result is IK×R with row (i*K+k) equal to
// a[i,:] ∗ b[k,:].
func KhatriRao(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(dimErr("KhatriRao", a, b))
	}
	out := NewDense(a.rows*b.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		for k := 0; k < b.rows; k++ {
			brow := b.Row(k)
			dst := out.Row(i*b.rows + k)
			for r, av := range arow {
				dst[r] = av * brow[r]
			}
		}
	}
	return out
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense(%d×%d)", m.rows, m.cols)
	if m.rows > 8 || m.cols > 8 {
		return sb.String()
	}
	sb.WriteString("[")
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.At(i, j))
		}
	}
	sb.WriteString("]")
	return sb.String()
}

func dimErr(op string, a, b *Dense) string {
	return fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols)
}
