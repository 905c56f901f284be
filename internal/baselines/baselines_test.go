package baselines

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"distenc/internal/core"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

func testCluster(t *testing.T, cfg rdd.Config) *rdd.Cluster {
	t.Helper()
	c := rdd.MustNewCluster(cfg)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestALSConvergesOnPlantedData(t *testing.T) {
	d := synth.LinearFactorDataset([]int{25, 25, 25}, 3, 4000, 1)
	rng := rand.New(rand.NewPCG(2, 2))
	train, test := d.Tensor.Split(0.3, rng)
	c := testCluster(t, rdd.Config{Machines: 3})
	res, err := ALS(c, train, core.Options{Rank: 5, MaxIter: 40, Tol: 1e-9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if re := metrics.RelativeError(test, res.Model); re > 0.2 {
		t.Fatalf("ALS relative error = %v", re)
	}
	first, last := res.Trace[0].TrainRMSE, res.Trace[len(res.Trace)-1].TrainRMSE
	if last >= first {
		t.Fatalf("ALS train RMSE did not decrease: %v -> %v", first, last)
	}
}

func TestALSOOMsOnFactorReplication(t *testing.T) {
	// Large dimensionality, tiny budget: the full-factor replica must
	// fail, reproducing ALS's Figure 3a behaviour.
	ts := synth.ScalabilityTensor([]int{20000, 20000, 20000}, 500, 4)
	c := testCluster(t, rdd.Config{Machines: 2, MemoryPerMachine: 1 << 20})
	_, err := ALS(c, ts, core.Options{Rank: 10, MaxIter: 2, Seed: 5})
	if !errors.Is(err, rdd.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TFAI is the same ADMM as the optimized serial solver. Without similarities
// the two take the same steps, and with the same seed their iterates must
// coincide, which validates both against each other. With similarities TFAI
// keeps the paper's exact dense B-solve while core takes one damped-Jacobi
// step per iteration, so the iterates differ but the fixed point does not:
// run both to Tol 1e-16 on a problem with one (the planted rank, λ = 1) and
// their factors agree to 1e-6. They do, to 2.4e-7, after 452 and 496
// iterations; at rank 3 or λ = 0.1 the two land on different fixed points
// and the comparison means nothing.
func TestTFAIMatchesOptimizedSerial(t *testing.T) {
	d := synth.LinearFactorDataset([]int{12, 10, 8}, 2, 700, 6)
	for _, tc := range []struct {
		name string
		opts core.Options
		sims bool
		tol  float64
	}{
		{"iterates", core.Options{Rank: 3, MaxIter: 6, Tol: -1, Seed: 7, Alpha: 0.5}, false, 1e-7},
		{"fixed-point", core.Options{Rank: 2, MaxIter: 2000, Tol: 1e-16, Seed: 7, Alpha: 0.5, Lambda: 1}, true, 1e-6},
	} {
		sims := d.Sims
		if !tc.sims {
			sims = nil
		}
		c := testCluster(t, rdd.Config{Machines: 1})
		naive, err := TFAI(c, d.Tensor, sims, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := core.Complete(d.Tensor, sims, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.sims && (!naive.Converged || !fast.Converged) {
			t.Fatalf("%s: converged TFAI=%v (%d iters), core=%v (%d iters)", tc.name, naive.Converged, naive.Iters, fast.Converged, fast.Iters)
		}
		for n := range fast.Model.Factors {
			if diff := mat.MaxAbsDiff(fast.Model.Factors[n], naive.Model.Factors[n]); diff > tc.tol {
				t.Fatalf("%s: mode %d: TFAI diverges from optimized serial by %v", tc.name, n, diff)
			}
		}
		// Memory must be fully released afterwards.
		if c.UsedMemory(0) != 0 {
			t.Fatalf("TFAI leaked %d bytes", c.UsedMemory(0))
		}
	}
}

func TestTFAIFootprintAndOOM(t *testing.T) {
	fp := TFAIFootprint([]int{100, 100, 100}, 10)
	want := int64(2*8*100*100*100 + 8*10*100*100)
	if fp != want {
		t.Fatalf("TFAIFootprint = %d, want %d", fp, want)
	}
	ts := synth.ScalabilityTensor([]int{1000, 1000, 1000}, 200, 8)
	c := testCluster(t, rdd.Config{Machines: 1, MemoryPerMachine: 1 << 20})
	_, err := TFAI(c, ts, nil, core.Options{Rank: 5, MaxIter: 1, Seed: 9})
	if !errors.Is(err, rdd.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if c.UsedMemory(0) != 0 {
		t.Fatal("failed TFAI leaked memory")
	}
}

func TestSCouTUsesAuxiliaryInfo(t *testing.T) {
	d := synth.LinearFactorDataset([]int{30, 30, 30}, 3, 1500, 10)
	rng := rand.New(rand.NewPCG(11, 11))
	train, test := d.Tensor.Split(0.5, rng)
	c := testCluster(t, rdd.Config{Machines: 3})
	opts := core.Options{Rank: 4, MaxIter: 30, Tol: 1e-10, Seed: 12, Alpha: 1}
	res, err := SCouT(c, train, d.Sims, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(t, rdd.Config{Machines: 3})
	plain, err := ALS(c2, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	reScout := metrics.RelativeError(test, res.Model)
	reALS := metrics.RelativeError(test, plain.Model)
	if reScout >= reALS {
		t.Fatalf("SCouT (%v) should beat plain ALS (%v) with auxiliary info", reScout, reALS)
	}
}

func TestSCouTOnMapReduceCluster(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 800, 13)
	c := testCluster(t, rdd.Config{Machines: 2, Mode: rdd.ModeMapReduce})
	res, err := SCouT(c, d.Tensor, d.Sims, core.Options{Rank: 3, MaxIter: 3, Tol: 0, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if c.Metrics().DiskBytesWrite.Load() == 0 {
		t.Fatal("SCouT on MapReduce must spill to disk")
	}
}

func TestFlexiFactTrainsAndCommunicates(t *testing.T) {
	d := synth.LinearFactorDataset([]int{24, 24, 12}, 2, 4000, 15)
	c := testCluster(t, rdd.Config{Machines: 3})
	res, err := FlexiFact(c, d.Tensor, d.Sims, core.Options{Rank: 3, MaxIter: 25, Tol: 0, Seed: 16, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Trace[0].TrainRMSE, res.Trace[len(res.Trace)-1].TrainRMSE
	if last >= first {
		t.Fatalf("FlexiFact train RMSE did not decrease: %v -> %v", first, last)
	}
	if c.Metrics().BytesShuffled.Load() == 0 {
		t.Fatal("FlexiFact must ship factor blocks per sub-epoch")
	}
	if c.UsedMemory(0) != 0 {
		t.Fatal("FlexiFact leaked replica memory")
	}
}

func TestFlexiFactOOMsOnReplication(t *testing.T) {
	ts := synth.ScalabilityTensor([]int{30000, 30000, 100}, 500, 17)
	c := testCluster(t, rdd.Config{Machines: 2, MemoryPerMachine: 1 << 20})
	_, err := FlexiFact(c, ts, nil, core.Options{Rank: 10, MaxIter: 1, Seed: 18})
	if !errors.Is(err, rdd.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if c.UsedMemory(0)+c.UsedMemory(1) != 0 {
		t.Fatal("failed FlexiFact leaked memory")
	}
}

func TestFlexiFactRejectsOneModeTensor(t *testing.T) {
	ts := synth.ScalabilityTensor([]int{10}, 5, 19)
	c := testCluster(t, rdd.Config{Machines: 2})
	if _, err := FlexiFact(c, ts, nil, core.Options{Rank: 2, MaxIter: 1}); err == nil {
		t.Fatal("expected error for 1-mode tensor")
	}
}

func TestFactorSetSize(t *testing.T) {
	fs := []*mat.Dense{mat.NewDense(10, 3), mat.NewDense(5, 3)}
	if got := replicaBytes(fs); got != (10*3+5*3)*8 {
		t.Fatalf("replicaBytes = %d", got)
	}
}

// TestReplicaReleasedOnEveryExit: ALS and FlexiFact hold one factor replica
// per machine for the run and leave no machine charged however the run ends —
// on success, when the replica does not fit on a machine after the first, and
// when a stage fails mid-iteration.
func TestReplicaReleasedOnEveryExit(t *testing.T) {
	const budget = 64 << 10
	d := synth.LinearFactorDataset([]int{200, 200, 200}, 2, 600, 22)
	opts := core.Options{Rank: 5, MaxIter: 2, Tol: 0, Seed: 23}
	replica := int64(600 * 5 * 8)
	methods := []struct {
		name      string
		failStage string // the per-iteration stage a fault plan can sink
		run       func(c *rdd.Cluster) error
	}{
		{"ALS", "shuffle-write:mttkrp-map", func(c *rdd.Cluster) error {
			_, err := ALS(c, d.Tensor, opts)
			return err
		}},
		{"FlexiFact", "collect:flexifact-sgd", func(c *rdd.Cluster) error {
			_, err := FlexiFact(c, d.Tensor, nil, opts)
			return err
		}},
	}
	assertReleased := func(t *testing.T, c *rdd.Cluster) {
		t.Helper()
		for m := 0; m < c.Machines(); m++ {
			if got := c.UsedMemory(m); got != 0 {
				t.Errorf("machine %d still charged %d bytes", m, got)
			}
		}
	}
	for _, method := range methods {
		t.Run(method.name+"/success", func(t *testing.T) {
			c := testCluster(t, rdd.Config{Machines: 3, MemoryPerMachine: budget})
			if err := method.run(c); err != nil {
				t.Fatal(err)
			}
			if c.MaxPeakMemory() < replica {
				t.Fatalf("peak %d bytes: no machine ever held the %d-byte replica", c.MaxPeakMemory(), replica)
			}
			assertReleased(t, c)
		})
		t.Run(method.name+"/oom-on-last-machine", func(t *testing.T) {
			c := testCluster(t, rdd.Config{Machines: 3, MemoryPerMachine: budget})
			// Machines 0 and 1 take the replica; machine 2 has room for its
			// tensor block but not for the replica on top.
			other := int64(budget - replica + 1)
			if err := c.Charge(2, other); err != nil {
				t.Fatal(err)
			}
			err := method.run(c)
			if !errors.Is(err, rdd.ErrOutOfMemory) || !strings.Contains(err.Error(), "factor replication") {
				t.Fatalf("err = %v, want ErrOutOfMemory from factor replication", err)
			}
			c.Release(2, other)
			assertReleased(t, c)
		})
		t.Run(method.name+"/stage-error", func(t *testing.T) {
			c := testCluster(t, rdd.Config{Machines: 3, MemoryPerMachine: budget})
			c.InjectTaskFailures(method.failStage, 100)
			if err := method.run(c); err == nil {
				t.Fatal("run survived a stage that fails every attempt")
			}
			assertReleased(t, c)
		})
	}
}

// TestALSReplicaTrafficIsStageAttributed: each epoch's M full replicas are
// shuffle bytes of a stage of their own, so the per-stage transfer profile sums
// to the cluster total.
func TestALSReplicaTrafficIsStageAttributed(t *testing.T) {
	const machines, iters = 3, 4
	d := synth.LinearFactorDataset([]int{30, 20, 10}, 2, 900, 24)
	c := testCluster(t, rdd.Config{Machines: machines})
	if _, err := ALS(c, d.Tensor, core.Options{Rank: 4, MaxIter: iters, Tol: 0, Seed: 25}); err != nil {
		t.Fatal(err)
	}
	replica := int64((30 + 20 + 10) * 4 * 8)
	var stages int
	var logged int64
	for _, rec := range c.StageLog() {
		logged += rec.BytesShuffled
		if strings.HasSuffix(rec.Name, "als-replicate") {
			stages++
			if rec.BytesShuffled != machines*replica {
				t.Fatalf("stage %s shuffled %d bytes, want %d replicas of %d", rec.Name, rec.BytesShuffled, machines, replica)
			}
		}
	}
	if stages != iters {
		t.Fatalf("%d als-replicate stages, want one per iteration (%d)", stages, iters)
	}
	if total := c.Metrics().BytesShuffled.Load(); total != logged || total < iters*machines*replica {
		t.Fatalf("BytesShuffled = %d, stage records sum to %d, replicas alone are %d", total, logged, iters*machines*replica)
	}
}

func TestALSDeterministicAcrossClusterSizes(t *testing.T) {
	// ALS math must not depend on the partitioning.
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1200, 20)
	opts := core.Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 21}
	c1 := testCluster(t, rdd.Config{Machines: 1})
	c2 := testCluster(t, rdd.Config{Machines: 4})
	r1, err := ALS(c1, d.Tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ALS(c2, d.Tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	for n := range r1.Model.Factors {
		if diff := mat.MaxAbsDiff(r1.Model.Factors[n], r2.Model.Factors[n]); diff > 1e-8 {
			t.Fatalf("mode %d: ALS differs across cluster sizes by %v", n, diff)
		}
	}
}

func TestTFAIFootprintSaturates(t *testing.T) {
	// At the paper's 10⁹ mode sizes the true footprint exceeds int64; it
	// must saturate positive, never wrap negative.
	fp := TFAIFootprint([]int{1_000_000_000, 1_000_000_000, 1_000_000_000}, 20)
	if fp <= 0 {
		t.Fatalf("footprint wrapped: %d", fp)
	}
	if fp != maxInt64Val {
		t.Fatalf("footprint = %d, want saturation at MaxInt64", fp)
	}
	if satAdd(maxInt64Val, 1) != maxInt64Val {
		t.Fatal("satAdd must saturate")
	}
	if satMul(0, 5) != 0 || satMul(5, 0) != 0 {
		t.Fatal("satMul zero")
	}
}
