// Package graph models the auxiliary similarity information of the paper:
// per-mode similarity matrices S_n, their graph Laplacians L_n = D_n − S_n
// in compressed sparse row form, and the B-update the solver takes on them
// every iteration (Laplacian.BStep). The spectral machinery of §III-B, which
// turns (ηI + αL)⁻¹ into a rescale in the eigenbasis, stays for the ablations
// and the benchmark probes; the solver no longer runs it.
package graph

import (
	"fmt"

	"distenc/internal/cpu"
	"distenc/internal/mat"
)

// Edge is one weighted neighbor in a similarity graph.
type Edge struct {
	To     int32
	Weight float64
}

// Similarity is a sparse symmetric similarity matrix S over n objects,
// stored as an adjacency list. Constructors guarantee symmetry.
type Similarity struct {
	N   int
	Adj [][]Edge
}

// NewSimilarity returns an empty (identity-information) similarity over n
// objects: no edges, Laplacian zero — the setting the paper uses for its
// scalability experiments ("similarity matrices are identity ... for all
// modes", §IV-B, meaning no auxiliary coupling).
func NewSimilarity(n int) *Similarity {
	return &Similarity{N: n, Adj: make([][]Edge, n)}
}

// AddEdge inserts the symmetric pair (i,j,w). Self-loops are rejected.
func (s *Similarity) AddEdge(i, j int, w float64) {
	if i == j {
		panic("graph: self-loop in similarity")
	}
	if i < 0 || j < 0 || i >= s.N || j >= s.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", i, j, s.N))
	}
	s.Adj[i] = append(s.Adj[i], Edge{To: int32(j), Weight: w})
	s.Adj[j] = append(s.Adj[j], Edge{To: int32(i), Weight: w})
}

// NumEdges returns the number of undirected edges.
func (s *Similarity) NumEdges() int {
	total := 0
	for _, es := range s.Adj {
		total += len(es)
	}
	return total / 2
}

// Degrees returns the weighted degree vector d_i = Σ_j S_ij.
func (s *Similarity) Degrees() []float64 {
	d := make([]float64, s.N)
	for i, es := range s.Adj {
		for _, e := range es {
			d[i] += e.Weight
		}
	}
	return d
}

// TriDiagonal builds the paper's Eq. (17) similarity: S_{i,i±1} = 1, used
// with the linear-factor synthetic data whose consecutive rows are similar.
func TriDiagonal(n int) *Similarity {
	s := NewSimilarity(n)
	for i := 0; i+1 < n; i++ {
		s.AddEdge(i, i+1, 1)
	}
	return s
}

// BlockOf returns the community of object i when n objects are cut into
// nBlocks equal consecutive communities.
func BlockOf(i, n, nBlocks int) int {
	b := i * nBlocks / n
	if b >= nBlocks {
		b = nBlocks - 1
	}
	return b
}

// Laplacian is L = D − S as a sparse symmetric operator in compressed sparse
// row form, built once by NewLaplacian: row i's neighbours are
// col[off[i]:off[i+1]] with weights w[off[i]:off[i+1]], in the order AddEdge
// inserted them. It implements mat.MatVec, so applying it costs O(nnz(S)).
type Laplacian struct {
	off []int
	col []int32
	w   []float64
	deg []float64
}

// NewLaplacian builds the graph Laplacian of s. Later edges added to s are
// not seen by it.
func NewLaplacian(s *Similarity) *Laplacian {
	nnz := 0
	for _, es := range s.Adj {
		nnz += len(es)
	}
	l := &Laplacian{
		off: make([]int, s.N+1),
		col: make([]int32, 0, nnz),
		w:   make([]float64, 0, nnz),
		deg: s.Degrees(),
	}
	for i, es := range s.Adj {
		for _, e := range es {
			l.col = append(l.col, e.To)
			l.w = append(l.w, e.Weight)
		}
		l.off[i+1] = len(l.col)
	}
	return l
}

// Dim implements mat.MatVec.
func (l *Laplacian) Dim() int { return len(l.deg) }

// NumEdges returns the number of undirected edges.
func (l *Laplacian) NumEdges() int { return len(l.col) / 2 }

// MaxDegree returns max_i d_i; ‖L‖₁ is twice it for non-negative weights.
func (l *Laplacian) MaxDegree() float64 {
	var d float64
	for _, v := range l.deg {
		d = max(d, v)
	}
	return d
}

// Apply sets dst = L·x.
func (l *Laplacian) Apply(dst, x []float64) {
	for i, d := range l.deg {
		v := d * x[i]
		for k := l.off[i]; k < l.off[i+1]; k++ {
			v -= l.w[k] * x[l.col[k]]
		}
		dst[i] = v
	}
}

// BStep takes one damped-Jacobi step towards the solution of
// (ηI + αL)·B = ηA − Y, Algorithm 1 line 4, on I×R row-major matrices:
//
//	B_i ← Π((ηA_i − Y_i + α·(d_i·P_i + Σ_j S_ij·P_j)) / (η + 2α·d_i))
//
// with P the previous iterate and Π the clamp of negatives to zero when
// nonNeg is set. This is linearized ADMM (Yang & Yuan 2013) with the proximal
// metric α(D + S) ⪰ 0, the signless Laplacian: it turns the coupled solve into
// a row-local one, and its fixed point B = P is exactly (ηI + αL)B = ηA − Y.
// Under a diagonal metric the clamp is the exact projection. A row without
// neighbours gets (ηA_i − Y_i)/η.
//
// All four matrices are the whole I×R; only rows [lo, hi) of dst are
// written, and only those rows of a and y (and any row of prev) are read, so
// a caller can take the step a tile of rows at a time. Neighbour rows are
// added in adjacency order, each product rounded before it is added. Where
// the CPU has AVX2 the step runs four columns a step, each column's
// operations those of the Go body, so the two agree bit for bit (DESIGN.md
// §5). dst must not overlap prev, a or y.
//
//distenc:hotpath
func (l *Laplacian) BStep(dst, prev, a, y []float64, lo, hi, rank int, eta, alpha float64, nonNeg bool) {
	if size := len(l.deg) * rank; len(dst) != size || len(prev) != size || len(a) != size || len(y) != size {
		panic("graph: BStep on matrices of the wrong shape")
	}
	if lo < 0 || hi > len(l.deg) || lo > hi {
		panic("graph: BStep on a row range outside the matrix")
	}
	if !hasVecBStep || cpu.GoBodies {
		l.bstepGo(dst, prev, a, y, lo, hi, rank, eta, alpha, nonNeg)
		return
	}
	if len(l.w) != len(l.col) || len(l.off) != len(l.deg)+1 {
		panic("graph: BStep on a malformed Laplacian")
	}
	if bad := bstepAVX2(dst, prev, a, y, l.off, l.col, l.w, l.deg, lo, hi, rank, eta, alpha, nonNeg); bad >= 0 {
		panic(fmt.Sprintf("graph: BStep row %d has adjacency entries outside the graph", bad))
	}
}

// bstepGo is BStep's portable body. Neighbour rows are folded four per
// sweep, added left to right in adjacency order, so the sums are those of
// the one-neighbour-at-a-time loop bit for bit. Every product is rounded
// before it is added (float64(·) keeps the compiler from fusing the two, as
// it would on arm64).
//
//distenc:hotpath
func (l *Laplacian) bstepGo(dst, prev, a, y []float64, lo, hi, rank int, eta, alpha float64, nonNeg bool) {
	for i := lo; i < hi; i++ {
		d := l.deg[i]
		out := dst[i*rank:][:rank]
		p := prev[i*rank:][:len(out)]
		//bce:begin
		for r, v := range p {
			out[r] = d * v
		}
		//bce:end
		cols := l.col[l.off[i]:l.off[i+1]]
		ws := l.w[l.off[i]:][:len(cols)]
		k := 0
		for ; k+4 <= len(cols); k += 4 {
			s0, s1, s2, s3 := ws[k], ws[k+1], ws[k+2], ws[k+3]
			p0 := prev[int(cols[k])*rank:][:len(out)]
			p1 := prev[int(cols[k+1])*rank:][:len(out)]
			p2 := prev[int(cols[k+2])*rank:][:len(out)]
			p3 := prev[int(cols[k+3])*rank:][:len(out)]
			//bce:begin
			for r := range out {
				out[r] = out[r] + float64(s0*p0[r]) + float64(s1*p1[r]) + float64(s2*p2[r]) + float64(s3*p3[r])
			}
			//bce:end
		}
		for ; k < len(cols); k++ {
			pj := prev[int(cols[k])*rank:][:len(out)]
			s := ws[k]
			//bce:begin
			for r, v := range pj {
				out[r] += float64(s * v)
			}
			//bce:end
		}
		ai, yi := a[i*rank:][:len(out)], y[i*rank:][:len(out)]
		inv := 1 / (eta + float64(2*alpha*d))
		//bce:begin
		for r, v := range out {
			out[r] = (float64(eta*ai[r]) - yi[r] + float64(alpha*v)) * inv
		}
		//bce:end
		if nonNeg {
			for r, v := range out {
				if v < 0 {
					out[r] = 0
				}
			}
		}
	}
}

// Dense materializes L (small modes / tests only).
func (l *Laplacian) Dense() *mat.Dense {
	n := l.Dim()
	out := mat.NewDense(n, n)
	for i, d := range l.deg {
		out.Set(i, i, d)
		for k := l.off[i]; k < l.off[i+1]; k++ {
			out.Add(i, int(l.col[k]), -l.w[k])
		}
	}
	return out
}

// TraceQuadratic returns tr(BᵀLB) = ½ Σ_ij S_ij ‖B_i − B_j‖², the smoothness
// penalty of Eq. (4), computed in O(nnz(S)·R) without materializing L.
func (l *Laplacian) TraceQuadratic(b *mat.Dense) float64 {
	var s float64
	for i := range l.deg {
		bi := b.Row(i)
		for k := l.off[i]; k < l.off[i+1]; k++ {
			bj := b.Row(int(l.col[k]))
			var d2 float64
			for r := range bi {
				d := bi[r] - bj[r]
				d2 += d * d
			}
			s += l.w[k] * d2
		}
	}
	return s / 2 // each undirected edge visited twice
}
