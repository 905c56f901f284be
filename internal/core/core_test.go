package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

func plantedProblem(dims []int, rank, nnz int, seed uint64) (*sptensor.Tensor, *sptensor.Kruskal) {
	d := synth.LinearFactorDataset(dims, rank, nnz, seed)
	return d.Tensor, d.Truth
}

func TestCompleteRecoversPlantedTensor(t *testing.T) {
	obs, truth := plantedProblem([]int{30, 30, 30}, 3, 8000, 1)
	rng := rand.New(rand.NewPCG(9, 9))
	train, test := obs.Split(0.3, rng)
	res, err := Complete(train, nil, Options{Rank: 6, MaxIter: 60, Tol: 1e-9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if re := metrics.RelativeError(test, res.Model); re > 0.15 {
		t.Fatalf("relative error on held-out entries = %v", re)
	}
	_ = truth
	if len(res.Trace) != res.Iters {
		t.Fatalf("trace length %d != iters %d", len(res.Trace), res.Iters)
	}
}

func TestCompleteTrainErrorDecreases(t *testing.T) {
	obs, _ := plantedProblem([]int{20, 25, 30}, 3, 4000, 3)
	res, err := Complete(obs, nil, Options{Rank: 5, MaxIter: 25, Tol: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace[0].TrainRMSE
	last := res.Trace[len(res.Trace)-1].TrainRMSE
	if last >= first/2 {
		t.Fatalf("training RMSE barely moved: %v -> %v", first, last)
	}
}

func TestAuxiliaryInfoHelpsAtHighMissingRate(t *testing.T) {
	// Sparse observations of a smooth planted model: the tri-diagonal trace
	// regularizer should beat the unregularized fit (the Fig. 5 claim).
	d := synth.LinearFactorDataset([]int{40, 40, 40}, 3, 1800, 5)
	rng := rand.New(rand.NewPCG(11, 11))
	train, test := d.Tensor.Split(0.5, rng)
	opts := Options{Rank: 4, MaxIter: 40, Tol: 1e-10, Seed: 6, Alpha: 1.0}
	plain, err := Complete(train, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	withAux, err := Complete(train, d.Sims, opts)
	if err != nil {
		t.Fatal(err)
	}
	rePlain := metrics.RelativeError(test, plain.Model)
	reAux := metrics.RelativeError(test, withAux.Model)
	if reAux >= rePlain {
		t.Fatalf("aux info did not help: plain %v vs aux %v", rePlain, reAux)
	}
}

func TestObjectiveDecreases(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 1200, 7)
	initModel := sptensor.NewKruskal(initFactors(d.Tensor.Dims, 4, 8)...)
	before := Objective(d.Tensor, initModel, d.Sims, 1e-2, 1e-1)
	res, err := Complete(d.Tensor, d.Sims, Options{Rank: 4, MaxIter: 30, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	after := Objective(d.Tensor, res.Model, d.Sims, 1e-2, 1e-1)
	if after >= before {
		t.Fatalf("objective did not decrease: %v -> %v", before, after)
	}
}

// TestSerialIsSinglePartitionDistributed: Complete is DisTenC at P = 1 minus
// the engine — the same kernel over the same one block, the same driver
// update — so on either backend the factors, the auxiliary variables and the
// training-error trace (the distributed one measures ‖E‖ before the update,
// the serial one after: shifted by one) are equal bit for bit.
func TestSerialIsSinglePartitionDistributed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dims   []int
		sims   bool
		truncK int
	}{
		{"order3", []int{25, 20, 15}, false, 0},
		{"order3/sims", []int{25, 20, 15}, true, 0},
		{"order3/sims/trunck", []int{25, 20, 15}, true, 6},
		{"order4", []int{8, 9, 10, 11}, false, 0},
		{"order4/sims/trunck", []int{8, 9, 10, 11}, true, 4},
	} {
		d := synth.LinearFactorDataset(tc.dims, 3, 2500, 9)
		var sims []*graph.Similarity
		if tc.sims {
			sims = d.Sims
		}
		opts := Options{Rank: 4, MaxIter: 6, Tol: 0, Seed: 10, Alpha: 0.5, TruncK: tc.truncK}
		serial, err := Complete(d.Tensor, sims, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, backend := range []string{"inproc", "tcp"} {
			var c *rdd.Cluster
			if backend == "tcp" {
				c, _ = newTCPCluster(t, rdd.Config{Machines: 2})
			} else {
				c = rdd.MustNewCluster(rdd.Config{Machines: 2})
				t.Cleanup(func() { c.Close() })
			}
			dist, err := CompleteDistributed(c, d.Tensor, sims, DistOptions{Options: opts, Partitions: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, backend, err)
			}
			assertBitIdentical(t, tc.name+"/"+backend+": factors", serial.Model.Factors, dist.Model.Factors)
			assertBitIdentical(t, tc.name+"/"+backend+": aux", serial.Aux, dist.Aux)
			if len(dist.Trace) != len(serial.Trace) {
				t.Fatalf("%s/%s: trace lengths differ: %d vs %d", tc.name, backend, len(dist.Trace), len(serial.Trace))
			}
			for i := 1; i < len(dist.Trace); i++ {
				got, want := dist.Trace[i].TrainRMSE, serial.Trace[i-1].TrainRMSE
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: iter %d: distributed RMSE %v, serial (shifted) %v", tc.name, backend, i, got, want)
				}
			}
		}
	}
}

// The P > 1 differential: blocking the tensor and shuffling the partial rows
// reassociates the kernel's sums and nothing else, so DisTenC on the engine
// tracks the serial solver (its own P = 1 case) to rounding.
func TestDistributedMatchesSerial(t *testing.T) {
	d := synth.LinearFactorDataset([]int{25, 20, 15}, 3, 2500, 9)
	opts := Options{Rank: 4, MaxIter: 8, Tol: 0, Seed: 10, Alpha: 0.5}
	serial, err := Complete(d.Tensor, d.Sims, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := rdd.MustNewCluster(rdd.Config{Machines: 3, CoresPerMachine: 2})
	defer c.Close()
	dist, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for n := range serial.Model.Factors {
		if diff := mat.MaxAbsDiff(serial.Model.Factors[n], dist.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("mode %d factors diverge by %v", n, diff)
		}
		if diff := mat.MaxAbsDiff(serial.Aux[n], dist.Aux[n]); diff > 1e-8 {
			t.Fatalf("mode %d aux diverge by %v", n, diff)
		}
	}
	if c.Metrics().BytesShuffled.Load() == 0 {
		t.Fatal("DisTenC shuffled nothing — the stage is not distributed")
	}
}

func TestDistributedVariantsAgree(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 12)
	opts := Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 13}
	c := rdd.MustNewCluster(rdd.Config{Machines: 4})
	defer c.Close()
	base, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  DistOptions
	}{
		{"uniform-partition", DistOptions{Options: opts, UniformPartition: true}},
		{"more-partitions", DistOptions{Options: opts, Partitions: 7}},
	} {
		c2 := rdd.MustNewCluster(rdd.Config{Machines: 4})
		got, err := CompleteDistributed(c2, d.Tensor, d.Sims, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for n := range base.Model.Factors {
			if diff := mat.MaxAbsDiff(base.Model.Factors[n], got.Model.Factors[n]); diff > 1e-8 {
				t.Fatalf("%s: mode %d diverges by %v", tc.name, n, diff)
			}
		}
		c2.Close()
	}
}

func TestDistributedOnMapReduceMode(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 800, 14)
	opts := Options{Rank: 3, MaxIter: 3, Tol: 0, Seed: 15}
	c := rdd.MustNewCluster(rdd.Config{Machines: 2, Mode: rdd.ModeMapReduce})
	defer c.Close()
	res, err := CompleteDistributed(c, d.Tensor, nil, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if c.Metrics().DiskBytesWrite.Load() == 0 {
		t.Fatal("MapReduce mode wrote nothing to disk")
	}
}

func TestDistributedOOMPropagates(t *testing.T) {
	d := synth.LinearFactorDataset([]int{40, 40, 40}, 2, 20000, 16)
	c := rdd.MustNewCluster(rdd.Config{Machines: 2, MemoryPerMachine: 1024})
	defer c.Close()
	_, err := CompleteDistributed(c, d.Tensor, nil, DistOptions{Options: Options{Rank: 3, MaxIter: 2, Seed: 1}})
	if !errors.Is(err, rdd.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestValidateRejectsBadSims(t *testing.T) {
	ts := sptensor.New(4, 4)
	ts.Append([]int32{0, 0}, 1)
	badLen := []*graph.Similarity{graph.TriDiagonal(4)}
	if _, err := Complete(ts, badLen, Options{}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v", err)
	}
	badSize := []*graph.Similarity{graph.TriDiagonal(5), nil}
	if _, err := Complete(ts, badSize, Options{}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v", err)
	}
}

// TestTruncatedSpectraPath: Options.TruncK is accepted and ignored — the
// B-update decomposes nothing, so a run that sets it computes the bits of one
// that does not.
func TestTruncatedSpectraPath(t *testing.T) {
	d := synth.LinearFactorDataset([]int{30, 30, 30}, 2, 2000, 17)
	res, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 10, TruncK: 8, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 10, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "TruncK 8 vs unset: factors", res.Model.Factors, plain.Model.Factors)
	assertBitIdentical(t, "TruncK 8 vs unset: aux", res.Aux, plain.Aux)
}

func TestConvergenceCriterionStopsEarly(t *testing.T) {
	d := synth.LinearFactorDataset([]int{10, 10, 10}, 2, 600, 19)
	res, err := Complete(d.Tensor, nil, Options{Rank: 2, MaxIter: 500, Tol: 1e-6, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("never converged")
	}
	if res.Iters >= 500 {
		t.Fatal("did not stop early")
	}
}

func TestInitFactorsDeterministic(t *testing.T) {
	a := initFactors([]int{5, 6}, 3, 42)
	b := initFactors([]int{5, 6}, 3, 42)
	c := initFactors([]int{5, 6}, 3, 43)
	if mat.MaxAbsDiff(a[0], b[0]) != 0 || mat.MaxAbsDiff(a[1], b[1]) != 0 {
		t.Fatal("same seed must give same init")
	}
	if mat.MaxAbsDiff(a[0], c[0]) == 0 {
		t.Fatal("different seeds must differ")
	}
	for _, f := range a {
		for _, v := range f.Data() {
			if v < 0 || v >= 1 {
				t.Fatalf("init value %v outside [0,1)", v)
			}
		}
	}
}

// TestInitFactorsDrawsRandFloat64: initFactors draws straight from its PCG,
// and every value, through every mode in turn, is bit for bit what
// rand.New(rand.NewPCG(seed, 0xd15c0)).Float64() returns in sequence.
func TestInitFactorsDrawsRandFloat64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 63} {
		dims := []int{13, 1, 29, 4}
		rng := rand.New(rand.NewPCG(seed, 0xd15c0))
		for n, f := range initFactors(dims, 5, seed) {
			for i, v := range f.Data() {
				if want := rng.Float64(); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("seed %d mode %d value %d: %v, want rand.Float64's %v", seed, n, i, v, want)
				}
			}
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	d := synth.LinearFactorDataset([]int{8, 8, 8}, 2, 300, 21)
	var calls int
	_, err := Complete(d.Tensor, nil, Options{Rank: 2, MaxIter: 4, Tol: 0, Seed: 22,
		OnIteration: func(p metrics.ConvergencePoint) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("callback fired %d times, want 4", calls)
	}
}

func TestFourModeTensor(t *testing.T) {
	// The solver must be generic in N, not hard-coded to 3 modes.
	d := synth.LinearFactorDataset([]int{8, 9, 10, 11}, 2, 3000, 23)
	serial, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer c.Close()
	dist, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 24}})
	if err != nil {
		t.Fatal(err)
	}
	for n := range serial.Model.Factors {
		if diff := mat.MaxAbsDiff(serial.Model.Factors[n], dist.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("4-mode: factors %d diverge by %v", n, diff)
		}
	}
}

func TestObjectiveOfEmptySims(t *testing.T) {
	ts := sptensor.New(3, 3)
	ts.Append([]int32{1, 1}, 2)
	model := sptensor.NewKruskal(initFactors([]int{3, 3}, 2, 1)...)
	withNil := Objective(ts, model, nil, 0.01, 0.1)
	withEmpty := Objective(ts, model, []*graph.Similarity{graph.NewSimilarity(3), nil}, 0.01, 0.1)
	if math.Abs(withNil-withEmpty) > 1e-12 {
		t.Fatalf("empty sims changed objective: %v vs %v", withNil, withEmpty)
	}
}

func TestDistributedTraceMonotoneOnPlanted(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 3, 2500, 25)
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	res, err := CompleteDistributed(c, d.Tensor, nil, DistOptions{Options: Options{Rank: 4, MaxIter: 15, Tol: 0, Seed: 26}})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace[0].TrainRMSE
	last := res.Trace[len(res.Trace)-1].TrainRMSE
	if last >= first {
		t.Fatalf("distributed RMSE did not decrease: %v -> %v", first, last)
	}
}

func TestGridPartitionAgrees(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 62}
	c1 := rdd.MustNewCluster(rdd.Config{Machines: 4})
	defer c1.Close()
	base, err := CompleteDistributed(c1, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	c2 := rdd.MustNewCluster(rdd.Config{Machines: 4})
	defer c2.Close()
	grid, err := CompleteDistributed(c2, d.Tensor, d.Sims, DistOptions{Options: opts, GridPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	for n := range base.Model.Factors {
		if diff := mat.MaxAbsDiff(base.Model.Factors[n], grid.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("grid blocking changed mode-%d factors by %v", n, diff)
		}
	}
	// And with 7 partitions (prime: the grid degenerates to one cut mode).
	c3 := rdd.MustNewCluster(rdd.Config{Machines: 7})
	defer c3.Close()
	grid7, err := CompleteDistributed(c3, d.Tensor, d.Sims, DistOptions{Options: opts, GridPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	for n := range base.Model.Factors {
		if diff := mat.MaxAbsDiff(base.Model.Factors[n], grid7.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("grid blocking (7 parts) changed mode-%d factors by %v", n, diff)
		}
	}
}

// Grid blocking must ship fewer factor-row bytes than mode-0 blocking once
// there are enough partitions for mode-1/2 locality to matter — on a scattered
// tensor (a few non-zeros per row) and on a dense one (every row has far more
// than P, so an uncut mode costs the full P·Iₙ rows of Lemma 3; the dealt grid
// this test was written for shipped a third more than mode-0 blocking there).
func TestGridPartitionShipsFewerRows(t *testing.T) {
	opts := Options{Rank: 4, MaxIter: 2, Tol: 0, Seed: 64}
	for _, tc := range []struct {
		name     string
		ts       *sptensor.Tensor
		machines int
	}{
		{"scattered", synth.ScalabilityTensor([]int{2000, 2000, 2000}, 40000, 63), 8},
		{"dense", synth.ScalabilityTensor([]int{300, 300, 300}, 60000, 63), 4},
	} {
		shuffled := func(grid bool) int64 {
			c := rdd.MustNewCluster(rdd.Config{Machines: tc.machines})
			defer c.Close()
			if _, err := CompleteDistributed(c, tc.ts, nil, DistOptions{Options: opts, GridPartition: grid}); err != nil {
				t.Fatal(err)
			}
			return c.Metrics().BytesShuffled.Load()
		}
		if grid, modeSplit := shuffled(true), shuffled(false); grid >= modeSplit {
			t.Errorf("%s: grid blocking shuffled %d bytes, mode-0 blocking %d — expected a reduction", tc.name, grid, modeSplit)
		}
	}
}

// TestDivergedSolveIsAnError is ROADMAP F8's reproduction: one entry of the
// 20×15×10 linear-factor tensor set to 1e20 or 1e40 drives the factors past
// the float64 range within 30 iterations. Serial, at P = 1 and at P = 4 the
// solve must return an error naming the iteration — never a Result, which
// used to carry NaN factors — while the untouched tensor solves to finite
// factors.
func TestDivergedSolveIsAnError(t *testing.T) {
	opt := Options{Rank: 3, MaxIter: 30, Tol: -1, Lambda: 1e-2, Seed: 1}
	for _, big := range []float64{0, 1e20, 1e40} {
		ts := synth.LinearFactorDataset([]int{20, 15, 10}, 3, 500, 9).Tensor
		for e := range ts.Val {
			if big != 0 && ts.Index(e)[0] == 0 && ts.Index(e)[1] == 0 && ts.Index(e)[2] == 0 {
				ts.Val[e] = big // the cell distenc-gen writes first
			}
		}
		for _, p := range []int{0, 1, 4} {
			var res *Result
			var err error
			if p == 0 {
				res, err = Complete(ts, nil, opt)
			} else {
				c := rdd.MustNewCluster(rdd.Config{Machines: p})
				res, err = CompleteDistributed(c, ts, nil, DistOptions{Options: opt})
				c.Close()
			}
			if big == 0 {
				if err != nil {
					t.Fatalf("P=%d: clean solve failed: %v", p, err)
				}
				for n, f := range res.Model.Factors {
					for _, v := range f.Data() {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("P=%d: clean solve left %v in mode %d", p, v, n)
						}
					}
				}
				continue
			}
			if err == nil || res != nil {
				t.Fatalf("entry %g, P=%d: solve returned %v, %v; want an error and no result", big, p, res, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "iteration ") || !strings.Contains(msg, "diverged") {
				t.Fatalf("entry %g, P=%d: error %q names no iteration", big, p, msg)
			}
			t.Logf("entry %g, P=%d: %v", big, p, err)
		}
	}
}

// TestUpdateRefusesNonFiniteState: the driver update returns an error naming
// the iteration and the mode, not a panic or NaN factors, when a current
// factor holds an infinity (its Gram, computed on the first update) and when
// an H_n does (the next Gram of that mode).
func TestUpdateRefusesNonFiniteState(t *testing.T) {
	ts := synth.LinearFactorDataset([]int{20, 15, 10}, 3, 500, 9).Tensor
	opt := Options{Rank: 3, Seed: 1}.withDefaults()
	st := newSolverState(ts, nil, opt)
	hs, _ := naiveStageMTTKRP(ts, st.factors)
	st.factors[1].Data()[4] = math.Inf(-1)
	if _, err := st.update(wholeH(hs)); err == nil || !strings.Contains(err.Error(), "iteration 0, mode 1:") {
		t.Fatalf("an infinite factor entry gave %v", err)
	}
	st = newSolverState(ts, nil, opt)
	hs, _ = naiveStageMTTKRP(ts, st.factors)
	st.iter = 6
	hs[2].Data()[7] = math.NaN()
	if _, err := st.update(wholeH(hs)); err == nil || !strings.Contains(err.Error(), "iteration 6, mode 2:") {
		t.Fatalf("a NaN in H_2 gave %v", err)
	}
}
