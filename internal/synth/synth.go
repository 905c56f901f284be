// Package synth generates every workload the experiments run on.
//
// Two generators mirror the paper's synthetic datasets exactly (§IV-A):
// uniform random tensors for the scalability sweeps, and the linear-factor
// construction with the Eq. (17) tri-diagonal similarity for the
// reconstruction-error tests.
//
// Four more stand in for the paper's real datasets (Netflix, Twitter lists,
// Facebook, DBLP), which are not redistributable: each plants the structure
// the corresponding experiment relies on — low-rank signal, informative
// per-mode similarity, realistic sparsity — at ~100× reduced scale, with
// known ground truth. DESIGN.md §2 documents the substitution.
package synth

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/sptensor"
)

// Dataset bundles a (partially observed) tensor with its per-mode auxiliary
// similarities and, when planted, the generating model and concept labels.
type Dataset struct {
	Name   string
	Tensor *sptensor.Tensor
	// Sims holds one similarity per mode; nil entries mean no auxiliary
	// information for that mode.
	Sims []*graph.Similarity
	// Truth is the planted Kruskal model when one exists.
	Truth *sptensor.Kruskal
	// Concepts[n][i] is the planted concept of object i in mode n, or nil
	// when the mode has no planted concepts (used by the Table III
	// concept-discovery experiment).
	Concepts [][]int
}

// String summarizes the dataset like a Table II row.
func (d *Dataset) String() string {
	return fmt.Sprintf("%-14s dims=%v nnz=%d", d.Name, d.Tensor.Dims, d.Tensor.NNZ())
}

// ScalabilityTensor draws nnz entries uniformly at random with N(0,1) values
// — the paper's scalability synthetic ("randomly setting a data point at
// (i,j,k)"). Duplicate coordinates are coalesced, so the returned nnz can be
// marginally lower than requested.
func ScalabilityTensor(dims []int, nnz int, seed uint64) *sptensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	t := sptensor.New(dims...)
	idx := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = int32(rng.IntN(d))
		}
		t.Append(idx, rng.NormFloat64())
	}
	return t.Dedupe()
}

// LinearFactorDataset reproduces the reconstruction-error synthetic of
// §IV-A: factor columns are linear in the row index, A(n)[i,r] = t_i·ε_r +
// ε'_r with ε, ε' ~ N(0,1), so consecutive rows are similar, and the
// auxiliary similarity is the Eq. (17) tri-diagonal matrix. The row
// coordinate t_i = i/I_n is normalized to keep values O(1) at any mode size
// (a pure rescaling of the paper's construction). Observations are nnz
// uniformly sampled coordinates carrying exact model values.
func LinearFactorDataset(dims []int, rank, nnz int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x0ddba11))
	factors := make([]*mat.Dense, len(dims))
	sims := make([]*graph.Similarity, len(dims))
	for n, d := range dims {
		f := mat.NewDense(d, rank)
		for r := 0; r < rank; r++ {
			eps := rng.NormFloat64()
			eps2 := rng.NormFloat64()
			for i := 0; i < d; i++ {
				f.Set(i, r, float64(i)/float64(d)*eps+eps2)
			}
		}
		factors[n] = f
		sims[n] = graph.TriDiagonal(d)
	}
	truth := sptensor.NewKruskal(factors...)
	t := sptensor.New(dims...)
	idx := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = int32(rng.IntN(d))
		}
		t.Append(idx, truth.At(idx))
	}
	t.Dedupe()
	return &Dataset{Name: "synthetic-error", Tensor: t, Sims: sims, Truth: truth}
}

// blockFactors builds a factor matrix with nBlocks planted communities:
// rows in the same block share a random center plus jitter·N(0,1) noise.
// Returns the matrix and the block label per row.
func blockFactors(rng *rand.Rand, n, rank, nBlocks int, jitter float64) (*mat.Dense, []int) {
	centers := mat.NewDense(nBlocks, rank)
	for b := 0; b < nBlocks; b++ {
		row := centers.Row(b)
		for r := range row {
			row[r] = rng.Float64()
		}
	}
	f := mat.NewDense(n, rank)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		b := graph.BlockOf(i, n, nBlocks)
		labels[i] = b
		src := centers.Row(b)
		dst := f.Row(i)
		for r := range dst {
			dst[r] = src[r] + jitter*rng.NormFloat64()
			if dst[r] < 0 {
				dst[r] = -dst[r] // keep factors non-negative like ratings
			}
		}
	}
	return f, labels
}

// communitySimilarity links objects sharing a planted block: the "same
// affiliation / same location" auxiliary matrices of the paper's real
// datasets. Each object gets ~deg within-block neighbors. Blocks are visited
// in sorted label order: the draws come from one shared rng, so ranging over
// the map directly would give a different graph on every run of one seed.
func communitySimilarity(rng *rand.Rand, labels []int, deg int) *graph.Similarity {
	n := len(labels)
	byBlock := map[int][]int{}
	for i, b := range labels {
		byBlock[b] = append(byBlock[b], i)
	}
	s := graph.NewSimilarity(n)
	seen := map[[2]int]bool{}
	for _, b := range slices.Sorted(maps.Keys(byBlock)) {
		members := byBlock[b]
		if len(members) < 2 {
			continue
		}
		for _, i := range members {
			for d := 0; d < deg; d++ {
				j := members[rng.IntN(len(members))]
				if i == j {
					continue
				}
				key := [2]int{min(i, j), max(i, j)}
				if seen[key] {
					continue
				}
				seen[key] = true
				s.AddEdge(i, j, 1)
			}
		}
	}
	return s
}

// RecsysConfig sizes the recommender stand-ins.
type RecsysConfig struct {
	Users, Items, Contexts int
	Rank                   int
	NNZ                    int
	Noise                  float64
	Seed                   uint64
}

// NetflixSim builds the user-movie-time rating stand-in: planted low-rank
// preferences, ratings rescaled to the 1–5 star range with Gaussian noise,
// and a movie-movie similarity linking movies with the same planted genre
// (the paper's title-based movie similarity).
func NetflixSim(cfg RecsysConfig) *Dataset {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf1cbeef))
	uf, _ := blockFactors(rng, cfg.Users, cfg.Rank, 8, 0.15)
	mf, genres := blockFactors(rng, cfg.Items, cfg.Rank, 6, 0.10)
	tf, _ := blockFactors(rng, cfg.Contexts, cfg.Rank, 3, 0.05)
	truth := sptensor.NewKruskal(uf, mf, tf)

	// Rescale so typical ratings span ~1..5.
	lo, hi := kruskalRange(rng, truth, 2000)
	scale, shift := ratingScale(lo, hi)

	t := sptensor.New(cfg.Users, cfg.Items, cfg.Contexts)
	idx := make([]int32, 3)
	for e := 0; e < cfg.NNZ; e++ {
		idx[0] = int32(rng.IntN(cfg.Users))
		idx[1] = int32(rng.IntN(cfg.Items))
		idx[2] = int32(rng.IntN(cfg.Contexts))
		v := truth.At(idx)*scale + shift + cfg.Noise*rng.NormFloat64()
		t.Append(idx, clamp(v, 1, 5))
	}
	t.Dedupe()
	rescaleKruskal(truth, scale, shift)
	sims := []*graph.Similarity{nil, communitySimilarity(rng, genres, 3), nil}
	return &Dataset{
		Name: "netflix-sim", Tensor: t, Sims: sims, Truth: truth,
		Concepts: [][]int{nil, genres, nil},
	}
}

// TwitterSim builds the creator-expert-topic Twitter-list stand-in with
// creator-creator and expert-expert location similarities (§IV-E).
func TwitterSim(cfg RecsysConfig) *Dataset {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7e11ca57))
	cf, cloc := blockFactors(rng, cfg.Users, cfg.Rank, 10, 0.12)
	ef, eloc := blockFactors(rng, cfg.Items, cfg.Rank, 10, 0.12)
	tf, _ := blockFactors(rng, cfg.Contexts, cfg.Rank, 4, 0.05)
	truth := sptensor.NewKruskal(cf, ef, tf)
	t := sptensor.New(cfg.Users, cfg.Items, cfg.Contexts)
	idx := make([]int32, 3)
	for e := 0; e < cfg.NNZ; e++ {
		idx[0] = int32(rng.IntN(cfg.Users))
		idx[1] = int32(rng.IntN(cfg.Items))
		idx[2] = int32(rng.IntN(cfg.Contexts))
		v := truth.At(idx) + cfg.Noise*rng.NormFloat64()
		t.Append(idx, v)
	}
	t.Dedupe()
	sims := []*graph.Similarity{
		communitySimilarity(rng, cloc, 3),
		communitySimilarity(rng, eloc, 3),
		nil,
	}
	return &Dataset{
		Name: "twitter-sim", Tensor: t, Sims: sims, Truth: truth,
		Concepts: [][]int{cloc, eloc, nil},
	}
}

// LinkPredConfig sizes the Facebook link-prediction stand-in.
type LinkPredConfig struct {
	Users, Days int
	Rank        int
	NNZ         int
	Noise       float64
	Seed        uint64
}

// FacebookSim builds the user-user-time friendship stand-in of §IV-F:
// community-structured link strengths with a user-user similarity derived
// from the same communities (the paper's wall-post similarity).
func FacebookSim(cfg LinkPredConfig) *Dataset {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xfaceb00c))
	uf, comm := blockFactors(rng, cfg.Users, cfg.Rank, 12, 0.10)
	vf := uf.Clone() // symmetric relationship: both user modes share factors
	df, _ := blockFactors(rng, cfg.Days, cfg.Rank, 2, 0.05)
	truth := sptensor.NewKruskal(uf, vf, df)
	t := sptensor.New(cfg.Users, cfg.Users, cfg.Days)
	idx := make([]int32, 3)
	for e := 0; e < cfg.NNZ; e++ {
		// Bias sampling toward in-community pairs so observed links reflect
		// homophily, as in the real network.
		u := rng.IntN(cfg.Users)
		var v int
		if rng.Float64() < 0.7 {
			v = sameBlockNeighbor(rng, comm, u)
		} else {
			v = rng.IntN(cfg.Users)
		}
		if u == v {
			continue
		}
		idx[0], idx[1], idx[2] = int32(u), int32(v), int32(rng.IntN(cfg.Days))
		t.Append(idx, truth.At(idx)+cfg.Noise*rng.NormFloat64())
	}
	t.Dedupe()
	sims := []*graph.Similarity{
		communitySimilarity(rng, comm, 3),
		communitySimilarity(rng, comm, 3),
		nil,
	}
	return &Dataset{
		Name: "facebook-sim", Tensor: t, Sims: sims, Truth: truth,
		Concepts: [][]int{comm, comm, nil},
	}
}

func sameBlockNeighbor(rng *rand.Rand, labels []int, u int) int {
	// Rejection sample within u's block; bounded attempts keep it O(1) in
	// expectation for balanced blocks.
	for tries := 0; tries < 32; tries++ {
		v := rng.IntN(len(labels))
		if labels[v] == labels[u] {
			return v
		}
	}
	return rng.IntN(len(labels))
}

// DBLPConfig sizes the concept-discovery stand-in.
type DBLPConfig struct {
	Authors, Papers, Venues int
	Concepts                int
	Rank                    int
	NNZ                     int
	Seed                    uint64
}

// DBLPSim builds the author-paper-venue bibliography stand-in of §IV-G.
// Every paper belongs to one planted concept (Database, Data Mining, …);
// its authors and venue are drawn from that concept's blocks, so a correct
// factorization should recover one concept per component (Table III). The
// author-author similarity links same-affiliation authors, approximated by
// same-concept blocks.
func DBLPSim(cfg DBLPConfig) *Dataset {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xdb1bdb1b))
	authorConcept := make([]int, cfg.Authors)
	for i := range authorConcept {
		authorConcept[i] = graph.BlockOf(i, cfg.Authors, cfg.Concepts)
	}
	venueConcept := make([]int, cfg.Venues)
	for i := range venueConcept {
		venueConcept[i] = graph.BlockOf(i, cfg.Venues, cfg.Concepts)
	}
	paperConcept := make([]int, cfg.Papers)
	for i := range paperConcept {
		paperConcept[i] = rng.IntN(cfg.Concepts)
	}
	byConceptAuthor := indexByConcept(authorConcept, cfg.Concepts)
	byConceptVenue := indexByConcept(venueConcept, cfg.Concepts)

	t := sptensor.New(cfg.Authors, cfg.Papers, cfg.Venues)
	idx := make([]int32, 3)
	for e := 0; e < cfg.NNZ; e++ {
		p := rng.IntN(cfg.Papers)
		c := paperConcept[p]
		authors := byConceptAuthor[c]
		venues := byConceptVenue[c]
		if len(authors) == 0 || len(venues) == 0 {
			continue
		}
		idx[0] = int32(authors[rng.IntN(len(authors))])
		idx[1] = int32(p)
		idx[2] = int32(venues[rng.IntN(len(venues))])
		t.Append(idx, 1)
	}
	t.Coalesce()
	sims := []*graph.Similarity{
		communitySimilarity(rng, authorConcept, 3),
		nil,
		nil,
	}
	return &Dataset{
		Name: "dblp-sim", Tensor: t, Sims: sims,
		Concepts: [][]int{authorConcept, paperConcept, venueConcept},
	}
}

func indexByConcept(labels []int, concepts int) [][]int {
	out := make([][]int, concepts)
	for i, c := range labels {
		out[c] = append(out[c], i)
	}
	return out
}

func kruskalRange(rng *rand.Rand, k *sptensor.Kruskal, samples int) (lo, hi float64) {
	dims := k.Dims()
	idx := make([]int32, len(dims))
	lo, hi = math.Inf(1), math.Inf(-1)
	for s := 0; s < samples; s++ {
		for m, d := range dims {
			idx[m] = int32(rng.IntN(d))
		}
		v := k.At(idx)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func ratingScale(lo, hi float64) (scale, shift float64) {
	if hi <= lo {
		return 1, 0
	}
	scale = 4 / (hi - lo)
	shift = 1 - lo*scale
	return scale, shift
}

// rescaleKruskal folds value scaling into the first factor and leaves shift
// unapplied (the planted truth is only used for qualitative checks).
func rescaleKruskal(k *sptensor.Kruskal, scale, shift float64) {
	k.Factors[0].Scale(scale)
	_ = shift
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DBLP4Config sizes the 4-mode bibliography stand-in.
type DBLP4Config struct {
	Authors, Papers, Terms, Venues int
	Concepts                       int
	NNZ                            int
	Seed                           uint64
}

// DBLP4Sim builds the 4-mode author-paper-term-venue tensor the paper's
// introduction describes as the canonical multi-dimensional bibliography
// representation. Terms, like authors and venues, belong to planted
// concepts; every 4-tuple is concept-consistent.
func DBLP4Sim(cfg DBLP4Config) *Dataset {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xdb14db14))
	label := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = graph.BlockOf(i, n, cfg.Concepts)
		}
		return out
	}
	authorConcept := label(cfg.Authors)
	termConcept := label(cfg.Terms)
	venueConcept := label(cfg.Venues)
	paperConcept := make([]int, cfg.Papers)
	for i := range paperConcept {
		paperConcept[i] = rng.IntN(cfg.Concepts)
	}
	byAuthor := indexByConcept(authorConcept, cfg.Concepts)
	byTerm := indexByConcept(termConcept, cfg.Concepts)
	byVenue := indexByConcept(venueConcept, cfg.Concepts)

	t := sptensor.New(cfg.Authors, cfg.Papers, cfg.Terms, cfg.Venues)
	idx := make([]int32, 4)
	for e := 0; e < cfg.NNZ; e++ {
		p := rng.IntN(cfg.Papers)
		c := paperConcept[p]
		if len(byAuthor[c]) == 0 || len(byTerm[c]) == 0 || len(byVenue[c]) == 0 {
			continue
		}
		idx[0] = int32(byAuthor[c][rng.IntN(len(byAuthor[c]))])
		idx[1] = int32(p)
		idx[2] = int32(byTerm[c][rng.IntN(len(byTerm[c]))])
		idx[3] = int32(byVenue[c][rng.IntN(len(byVenue[c]))])
		t.Append(idx, 1)
	}
	t.Coalesce()
	sims := []*graph.Similarity{
		communitySimilarity(rng, authorConcept, 3),
		nil,
		nil,
		nil,
	}
	return &Dataset{
		Name: "dblp4-sim", Tensor: t, Sims: sims,
		Concepts: [][]int{authorConcept, paperConcept, termConcept, venueConcept},
	}
}
