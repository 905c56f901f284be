package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// Killing tasks inside the MTTKRP stage must not change the result: the
// engine re-runs them from lineage on another machine (the paper relies on
// Spark's identical guarantee).
func TestDisTenCSurvivesTaskFailures(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 51)
	opts := Options{Rank: 3, MaxIter: 4, Tol: 0, Seed: 52}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	faulty := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer faulty.Close()
	faulty.InjectTaskFailures("collect:mttkrp-reduce", 2)
	faulty.InjectTaskFailures("shuffle-write:mttkrp-map", 1)
	got, err := CompleteDistributed(faulty, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Metrics().TaskRetries.Load() == 0 {
		t.Fatal("no task was actually retried")
	}
	for n := range want.Model.Factors {
		if diff := mat.MaxAbsDiff(want.Model.Factors[n], got.Model.Factors[n]); diff > 1e-9 {
			t.Fatalf("mode %d differs by %v after fault recovery", n, diff)
		}
	}
}

// Property: the solver is invariant to the storage order of the observed
// entries. It sorts them into its one block, so with the initial scale given
// a coalesced tensor's factors are a function of the observation set, bit for
// bit; the automatic scale (ApplyInitScale) sums the initial predictions in
// storage order, which moves the starting point by rounding — 1e-9 there.
func TestEntryOrderInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := synth.LinearFactorDataset([]int{10, 10, 10}, 2, 400, seed%100)
		shuffled := sptensor.New(d.Tensor.Dims...)
		perm := rand.New(rand.NewPCG(seed, 1)).Perm(d.Tensor.NNZ())
		for _, e := range perm {
			shuffled.Append(d.Tensor.Index(e), d.Tensor.Val[e])
		}
		for _, initScale := range []float64{1, 0} {
			opts := Options{Rank: 2, MaxIter: 4, Tol: 0, Seed: 53, InitScale: initScale}
			base, err := Complete(d.Tensor, nil, opts)
			if err != nil {
				return false
			}
			got, err := Complete(shuffled, nil, opts)
			if err != nil {
				return false
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if initScale == 0 {
				same = func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
			}
			for n, want := range base.Model.Factors {
				if !slices.EqualFunc(want.Data(), got.Model.Factors[n].Data(), same) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicating the cluster configuration (cores, serialization)
// never changes DisTenC's result, only its schedule.
func TestScheduleInvarianceProperty(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 800, 54)
	opts := Options{Rank: 3, MaxIter: 3, Tol: 0, Seed: 55}
	var reference []*mat.Dense
	for i, cfg := range []rdd.Config{
		{Machines: 1, CoresPerMachine: 1},
		{Machines: 5, CoresPerMachine: 3},
		{Machines: 2, CoresPerMachine: 1, SerializeTasks: true},
		{Machines: 3, Mode: rdd.ModeMapReduce},
	} {
		c := rdd.MustNewCluster(cfg)
		res, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts})
		c.Close()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if reference == nil {
			reference = res.Model.Factors
			continue
		}
		for n := range reference {
			if diff := mat.MaxAbsDiff(reference[n], res.Model.Factors[n]); diff > 1e-9 {
				t.Fatalf("config %d: mode %d differs by %v", i, n, diff)
			}
		}
	}
}

// The layout's block RDD must compose with a narrow stage outside the solver:
// per-partition entry counts over it cover the tensor exactly once.
func TestEngineCompositionWithTensorBlocks(t *testing.T) {
	d := synth.LinearFactorDataset([]int{12, 12, 12}, 2, 600, 56)
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	layout := NewLayout(d.Tensor, DistOptions{Options: Options{Rank: 2}.withDefaults(), Partitions: 2})
	counts := rdd.MapPartitions(layout.BlocksRDD(c), "count", func(tc *rdd.TaskCtx, p int, in []*TensorBlock) ([]int, error) {
		total := 0
		for _, b := range in {
			total += b.NNZ()
		}
		return []int{total}, nil
	})
	got, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range got {
		sum += v
	}
	if sum != d.Tensor.NNZ() {
		t.Fatalf("blocks cover %d entries, want %d", sum, d.Tensor.NNZ())
	}
}
