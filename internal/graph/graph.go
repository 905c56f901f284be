// Package graph models the auxiliary similarity information of the paper:
// per-mode similarity matrices S_n, their graph Laplacians L_n = D_n − S_n,
// and the pre-computed spectral machinery (§III-B) that turns the expensive
// per-iteration inverse (ηI + αL)⁻¹ into a diagonal rescale in the
// eigenbasis.
package graph

import (
	"fmt"

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

// Laplacian is L = D − S as a sparse symmetric operator. It implements
// mat.MatVec, so applying it costs O(nnz(S)).
type Laplacian struct {
	sim *Similarity
	deg []float64
}

// NewLaplacian builds the graph Laplacian of s.
func NewLaplacian(s *Similarity) *Laplacian {
	return &Laplacian{sim: s, deg: s.Degrees()}
}

// Dim implements mat.MatVec.
func (l *Laplacian) Dim() int { return l.sim.N }

// Apply sets dst = L·x.
func (l *Laplacian) Apply(dst, x []float64) {
	for i := 0; i < l.sim.N; i++ {
		v := l.deg[i] * x[i]
		for _, e := range l.sim.Adj[i] {
			v -= e.Weight * x[int(e.To)]
		}
		dst[i] = v
	}
}

// Dense materializes L (small modes / tests only).
func (l *Laplacian) Dense() *mat.Dense {
	n := l.sim.N
	out := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		out.Set(i, i, l.deg[i])
		for _, e := range l.sim.Adj[i] {
			out.Add(i, int(e.To), -e.Weight)
		}
	}
	return out
}

// TraceQuadratic returns tr(BᵀLB) = ½ Σ_ij S_ij ‖B_i − B_j‖², the smoothness
// penalty of Eq. (4), computed in O(nnz(S)·R) without materializing L.
func (l *Laplacian) TraceQuadratic(b *mat.Dense) float64 {
	var s float64
	for i := 0; i < l.sim.N; i++ {
		bi := b.Row(i)
		for _, e := range l.sim.Adj[i] {
			bj := b.Row(int(e.To))
			var d2 float64
			for r := range bi {
				d := bi[r] - bj[r]
				d2 += d * d
			}
			s += e.Weight * d2
		}
	}
	return s / 2 // each undirected edge visited twice
}
