package synth

import (
	"math"
	"reflect"
	"testing"

	"distenc/internal/metrics"
)

func TestScalabilityTensorShape(t *testing.T) {
	ts := ScalabilityTensor([]int{100, 100, 100}, 5000, 1)
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if ts.NNZ() < 4900 || ts.NNZ() > 5000 {
		t.Fatalf("nnz = %d", ts.NNZ())
	}
	// Determinism: same seed, same tensor.
	ts2 := ScalabilityTensor([]int{100, 100, 100}, 5000, 1)
	// Determinism means bit-identical output, so compare bit patterns.
	if ts2.NNZ() != ts.NNZ() || math.Float64bits(ts2.Val[0]) != math.Float64bits(ts.Val[0]) {
		t.Fatal("generator not deterministic")
	}
	ts3 := ScalabilityTensor([]int{100, 100, 100}, 5000, 2)
	if math.Float64bits(ts3.Val[0]) == math.Float64bits(ts.Val[0]) && ts3.Idx[0] == ts.Idx[0] && ts3.Idx[1] == ts.Idx[1] {
		t.Fatal("different seeds should differ")
	}
}

func TestLinearFactorDatasetConsistency(t *testing.T) {
	d := LinearFactorDataset([]int{50, 60, 70}, 5, 3000, 7)
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Truth == nil || len(d.Sims) != 3 {
		t.Fatal("missing truth or sims")
	}
	// Observations carry the model values verbatim (same arithmetic, no
	// noise), so the stored and recomputed floats must agree bit for bit.
	for e := 0; e < 20; e++ {
		if got, want := d.Tensor.Val[e], d.Truth.At(d.Tensor.Index(e)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("entry %d = %v, want model value %v", e, got, want)
		}
	}
	// The tri-diagonal similarity matches the mode sizes.
	for n, s := range d.Sims {
		if s.N != d.Tensor.Dims[n] {
			t.Fatalf("sim %d size %d != dim %d", n, s.N, d.Tensor.Dims[n])
		}
		if s.NumEdges() != d.Tensor.Dims[n]-1 {
			t.Fatalf("sim %d edges = %d", n, s.NumEdges())
		}
	}
	// Model evaluates exactly on observations, so RMSE of truth is 0.
	if r := metrics.RMSE(d.Tensor, d.Truth); r != 0 {
		t.Fatalf("truth RMSE = %v", r)
	}
}

func TestNetflixSimProperties(t *testing.T) {
	d := NetflixSim(RecsysConfig{Users: 80, Items: 60, Contexts: 10, Rank: 4, NNZ: 2000, Noise: 0.1, Seed: 3})
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < d.Tensor.NNZ(); e++ {
		if v := d.Tensor.Val[e]; v < 1-1e-9 || v > 5+1e-9 {
			t.Fatalf("rating %v outside [1,5]", v)
		}
	}
	if d.Sims[1] == nil || d.Sims[0] != nil || d.Sims[2] != nil {
		t.Fatal("netflix must have exactly a movie-mode similarity")
	}
	if d.Sims[1].N != 60 {
		t.Fatalf("movie sim size %d", d.Sims[1].N)
	}
}

func TestTwitterSimProperties(t *testing.T) {
	d := TwitterSim(RecsysConfig{Users: 60, Items: 60, Contexts: 16, Rank: 4, NNZ: 1500, Noise: 0.05, Seed: 4})
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Sims[0] == nil || d.Sims[1] == nil || d.Sims[2] != nil {
		t.Fatal("twitter must have creator and expert similarities")
	}
	if d.Tensor.Dims[2] != 16 {
		t.Fatalf("topic mode = %d, want 16", d.Tensor.Dims[2])
	}
}

func TestFacebookSimProperties(t *testing.T) {
	d := FacebookSim(LinkPredConfig{Users: 70, Days: 5, Rank: 4, NNZ: 1500, Noise: 0.05, Seed: 5})
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Tensor.Dims[0] != d.Tensor.Dims[1] {
		t.Fatal("facebook tensor must be user×user×time")
	}
	// No self loops.
	for e := 0; e < d.Tensor.NNZ(); e++ {
		idx := d.Tensor.Index(e)
		if idx[0] == idx[1] {
			t.Fatal("self link generated")
		}
	}
	if d.Concepts[0] == nil {
		t.Fatal("missing planted communities")
	}
}

func TestDBLPSimPlantsConcepts(t *testing.T) {
	d := DBLPSim(DBLPConfig{Authors: 90, Papers: 120, Venues: 30, Concepts: 3, Rank: 3, NNZ: 2000, Seed: 6})
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	ac, pc, vc := d.Concepts[0], d.Concepts[1], d.Concepts[2]
	if len(ac) != 90 || len(pc) != 120 || len(vc) != 30 {
		t.Fatal("concept labels missing")
	}
	// Every observed triple must be concept-consistent by construction.
	for e := 0; e < d.Tensor.NNZ(); e++ {
		idx := d.Tensor.Index(e)
		c := pc[idx[1]]
		if ac[idx[0]] != c || vc[idx[2]] != c {
			t.Fatalf("entry %d mixes concepts: author=%d paper=%d venue=%d",
				e, ac[idx[0]], c, vc[idx[2]])
		}
	}
}

func TestDatasetString(t *testing.T) {
	d := LinearFactorDataset([]int{10, 10, 10}, 2, 100, 1)
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRatingScaleDegenerate(t *testing.T) {
	s, sh := ratingScale(2, 2)
	if s != 1 || sh != 0 {
		t.Fatal("degenerate range must be identity")
	}
}

func TestClamp(t *testing.T) {
	if clamp(0, 1, 5) != 1 || clamp(9, 1, 5) != 5 || clamp(3, 1, 5) != 3 {
		t.Fatal("clamp wrong")
	}
}

func TestDBLP4SimConsistency(t *testing.T) {
	d := DBLP4Sim(DBLP4Config{Authors: 60, Papers: 80, Terms: 40, Venues: 20, Concepts: 4, NNZ: 1500, Seed: 8})
	if err := d.Tensor.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Tensor.Order() != 4 {
		t.Fatalf("order = %d", d.Tensor.Order())
	}
	ac, pc, tc, vc := d.Concepts[0], d.Concepts[1], d.Concepts[2], d.Concepts[3]
	for e := 0; e < d.Tensor.NNZ(); e++ {
		idx := d.Tensor.Index(e)
		c := pc[idx[1]]
		if ac[idx[0]] != c || tc[idx[2]] != c || vc[idx[3]] != c {
			t.Fatal("4-tuple mixes concepts")
		}
	}
	if len(d.Sims) != 4 || d.Sims[0] == nil {
		t.Fatal("author similarity missing")
	}
}

// TestSimilaritiesReproducible pins that one seed gives one similarity graph:
// every generator is run twice in this process and the adjacency lists must
// agree exactly, edge order included. communitySimilarity used to range over
// a Go map of planted blocks while drawing from a shared rng, so the graphs
// differed from run to run.
func TestSimilaritiesReproducible(t *testing.T) {
	gens := map[string]func() *Dataset{
		"netflix": func() *Dataset {
			return NetflixSim(RecsysConfig{Users: 80, Items: 60, Contexts: 10, Rank: 4, NNZ: 2000, Noise: 0.1, Seed: 3})
		},
		"twitter": func() *Dataset {
			return TwitterSim(RecsysConfig{Users: 60, Items: 60, Contexts: 16, Rank: 4, NNZ: 1500, Noise: 0.05, Seed: 4})
		},
		"facebook": func() *Dataset {
			return FacebookSim(LinkPredConfig{Users: 70, Days: 5, Rank: 4, NNZ: 1500, Noise: 0.05, Seed: 5})
		},
	}
	for name, gen := range gens {
		a, b := gen(), gen()
		for n := range a.Sims {
			if a.Sims[n] == nil {
				continue
			}
			if a.Sims[n].NumEdges() == 0 {
				t.Fatalf("%s: mode %d similarity has no edges", name, n)
			}
			if !reflect.DeepEqual(a.Sims[n].Adj, b.Sims[n].Adj) {
				t.Errorf("%s: mode %d similarity differs between two runs of one seed", name, n)
			}
		}
	}
}
