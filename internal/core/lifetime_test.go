package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// TestSolveLifetimeHeapIsFlatOver200Iterations is the iteration-memory
// contract: nothing an iteration's shuffle allocates outlives the iteration.
// Over 200 iterations the live-shuffle gauge reads zero after every one (a
// leaked exchange fails on that count before it shows in a heap reading),
// every block image after the first iteration's comes out of the pool, and
// the collected heap at iteration 200 is within stage-log growth of
// iteration 20's.
func TestSolveLifetimeHeapIsFlatOver200Iterations(t *testing.T) {
	const iters, parts = 200, 4
	d := synth.LinearFactorDataset([]int{30, 30, 30}, 2, 4000, 81)
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	m := c.Metrics()

	var heapAt20, heapAt200 uint64
	var allocatedAt2 int64
	opt := DistOptions{
		Options:    Options{Rank: 4, MaxIter: iters, Tol: -1, Seed: 82},
		Partitions: parts, GridPartition: true,
	}
	opt.OnIteration = func(p metrics.ConvergencePoint) {
		if live := m.ShuffleLiveBytes.Load(); live != 0 {
			t.Errorf("iteration %d: %d shuffle bytes still live in unretired exchanges", p.Iter, live)
		}
		switch p.Iter + 1 {
		case 2:
			allocatedAt2 = m.BlocksAllocated.Load()
		case 20, iters:
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if p.Iter+1 == 20 {
				heapAt20 = ms.HeapAlloc
			} else {
				heapAt200 = ms.HeapAlloc
			}
		}
	}
	res, err := CompleteDistributed(c, d.Tensor, d.Sims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != iters {
		t.Fatalf("ran %d iterations, want %d", res.Iters, iters)
	}
	if got := m.BlocksAllocated.Load(); got != allocatedAt2 {
		t.Errorf("BlocksAllocated grew from %d (after iteration 2) to %d: steady-state iterations must encode into recycled images", allocatedAt2, got)
	}
	if got, want := m.BlocksRecycled.Load(), int64((iters-2)*parts*parts); got < want {
		t.Errorf("BlocksRecycled = %d, want at least %d", got, want)
	}
	// 180 iterations add two StageRecords, a PhaseTimes and a trace point
	// each — tens of KB. A retained exchange would add its P² block images
	// per iteration, megabytes over the run.
	t.Logf("heap at 20: %d, at 200: %d", heapAt20, heapAt200)
	const slack = 384 << 10
	if heapAt200 > heapAt20+slack {
		t.Errorf("live heap grew from %d B at iteration 20 to %d B at iteration 200 (more than the %d B the logs account for)",
			heapAt20, heapAt200, slack)
	}
	if sum := c.Summary(); !strings.Contains(sum, "shuffle images: 0 B live") {
		t.Errorf("Summary does not report the shuffle image gauges:\n%s", sum)
	}
}

// shuffleRecoveries counts the recovery events that touch shuffle outputs.
func shuffleRecoveries(c *rdd.Cluster) (evicts, recomputes int) {
	for _, ev := range c.Recoveries() {
		switch ev.Kind {
		case rdd.RecoveryShuffleEvict:
			evicts++
		case rdd.RecoveryShuffleRecompute:
			recomputes++
		}
	}
	return
}

// TestSolveKillDuringAndAfterRetire restates the recovery contract at the
// solve level. Stages run materialize, then (mttkrp-map, mttkrp-reduce) per
// iteration. A machine killed as a reduce stage begins takes committed map
// outputs with it — they are recomputed from lineage and the factors come out
// bit-identical; one killed as the next map stage begins finds the previous
// iteration's exchange retired: nothing to evict, nothing to recompute.
func TestSolveKillDuringAndAfterRetire(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 4, Tol: -1, Seed: 62}}
	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		stage   int
		recover bool
	}{
		{"during the consuming stage", 4, true}, // iteration 1's mttkrp-reduce
		{"after retirement", 5, false},          // iteration 2's mttkrp-map
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := rdd.MustNewCluster(rdd.Config{Machines: 3, Fault: &rdd.FaultPlan{
				KillMachine: 1, KillAtStage: tc.stage, KillSet: true,
			}})
			defer c.Close()
			got, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt)
			if err != nil {
				t.Fatal(err)
			}
			if c.HealthyMachines() != 2 {
				t.Fatal("the planned kill never fired")
			}
			assertBitIdentical(t, "kill "+tc.name, want.Model.Factors, got.Model.Factors)
			evicts, recomputes := shuffleRecoveries(c)
			if tc.recover && (evicts != 1 || recomputes == 0) {
				t.Errorf("%d shuffle-evict and %d shuffle-recompute events, want 1 and at least 1", evicts, recomputes)
			}
			if !tc.recover && evicts+recomputes != 0 {
				t.Errorf("%d shuffle-evict and %d shuffle-recompute events after retirement, want none", evicts, recomputes)
			}
			if cleanB, gotB := clean.Metrics().BytesShuffled.Load(), c.Metrics().BytesShuffled.Load(); gotB != cleanB {
				t.Errorf("BytesShuffled = %d, clean run = %d", gotB, cleanB)
			}
		})
	}
}

// TestRetireUnderSpeculationLeavesNothingLive: with stragglers out-raced by
// backups in both stages, every losing attempt has ended by the time its
// stage returns, so none can disturb the factors, the exactly-once shuffle
// volume or the gauges, and (run under -race) none can touch an image the
// next iteration is encoding into. Twelve partitions let a stage reach the
// 75 % committed quorum with up to three stragglers.
func TestRetireUnderSpeculationLeavesNothingLive(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 71)
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 6, Tol: -1, Seed: 72}, Partitions: 12}
	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatal(err)
	}
	c := rdd.MustNewCluster(rdd.Config{
		Machines:    3,
		Fault:       &rdd.FaultPlan{Seed: 11, StragglerProb: 0.3, StragglerDelay: 40 * time.Millisecond},
		Speculation: true,
	})
	defer c.Close()
	got, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "speculation vs clean", want.Model.Factors, got.Model.Factors)
	m := c.Metrics()
	if m.SpeculativeTasks.Load() == 0 {
		t.Fatal("no backup attempt launched: the case under test did not occur")
	}
	if live := m.ShuffleLiveBytes.Load(); live != 0 {
		t.Errorf("%d shuffle bytes live after the solve", live)
	}
	if cleanB, gotB := clean.Metrics().BytesShuffled.Load(), m.BytesShuffled.Load(); gotB != cleanB {
		t.Errorf("BytesShuffled = %d, clean run = %d", gotB, cleanB)
	}
	if evicts, recomputes := shuffleRecoveries(c); evicts+recomputes != 0 {
		t.Errorf("%d shuffle-evict and %d shuffle-recompute events in a run without a kill", evicts, recomputes)
	}
}
