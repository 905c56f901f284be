package core

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// assertBitIdentical compares factor sets by their IEEE-754 bit patterns:
// fault recovery and checkpoint/resume must reproduce the uninterrupted run
// exactly, not approximately.
func assertBitIdentical(t *testing.T, label string, want, got []*mat.Dense) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d factor matrices, want %d", label, len(got), len(want))
	}
	for n := range want {
		w, g := want[n].Data(), got[n].Data()
		if len(w) != len(g) {
			t.Fatalf("%s: mode %d has %d entries, want %d", label, n, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: mode %d entry %d = %v, want %v (not bit-identical)",
					label, n, i, g[i], w[i])
			}
		}
	}
}

// TestChaosSolveBitIdentical is the end-to-end chaos acceptance test: a
// distributed solve under a seeded fault plan — random task failures plus a
// machine killed mid-run — must complete and produce factors bit-identical to
// a failure-free solve, in both engine modes. Recovery must be visible in the
// metrics, the recovery-event log, and the Summary table.
func TestChaosSolveBitIdentical(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 6, Tol: 0, Seed: 62}

	for _, tc := range []struct {
		name string
		mode rdd.Mode
	}{
		{"in-memory", rdd.ModeInMemory},
		{"mapreduce", rdd.ModeMapReduce},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := rdd.MustNewCluster(rdd.Config{Machines: 3, Mode: tc.mode})
			defer clean.Close()
			want, err := CompleteDistributed(clean, d.Tensor, d.Sims, DistOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}

			chaos := rdd.MustNewCluster(rdd.Config{Machines: 3, Mode: tc.mode, Fault: &rdd.FaultPlan{
				Seed:            7,
				TaskFailureProb: 0.25,
				KillMachine:     1,
				KillAtStage:     5,
			}})
			defer chaos.Close()
			got, err := CompleteDistributed(chaos, d.Tensor, d.Sims, DistOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}

			if retries := chaos.Metrics().TaskRetries.Load(); retries < 5 {
				t.Errorf("chaos run retried only %d tasks, want >= 5", retries)
			}
			if alive := chaos.HealthyMachines(); alive != 2 {
				t.Errorf("HealthyMachines = %d after the planned kill, want 2", alive)
			}
			var kills, retryEvents int
			for _, ev := range chaos.Recoveries() {
				switch ev.Kind {
				case rdd.RecoveryMachineKill:
					kills++
				case rdd.RecoveryTaskRetry:
					retryEvents++
				}
			}
			if kills != 1 {
				t.Errorf("recovery log has %d machine kills, want 1", kills)
			}
			if retryEvents < 5 {
				t.Errorf("recovery log has %d task-retry events, want >= 5", retryEvents)
			}
			sum := chaos.Summary()
			for _, needle := range []string{"recovery events:", rdd.RecoveryMachineKill, rdd.RecoveryTaskRetry} {
				if !strings.Contains(sum, needle) {
					t.Errorf("Summary does not report %q:\n%s", needle, sum)
				}
			}
			// Lemma 3 accounting: recovery work (failed attempts, lineage
			// recomputes after the kill) must not inflate the exactly-once
			// shuffle counter — it lands in BytesWasted/BytesRecomputed
			// instead, so BytesShuffled stays bit-equal to the clean run.
			cleanShuffled := clean.Metrics().BytesShuffled.Load()
			if chaosShuffled := chaos.Metrics().BytesShuffled.Load(); chaosShuffled != cleanShuffled {
				t.Errorf("chaos BytesShuffled = %d, clean = %d: recovery traffic double-counted",
					chaosShuffled, cleanShuffled)
			}
			var recomputes int
			for _, ev := range chaos.Recoveries() {
				if ev.Kind == rdd.RecoveryShuffleRecompute {
					recomputes++
				}
			}
			if recomputes > 0 && chaos.Metrics().BytesRecomputed.Load() == 0 {
				t.Errorf("%d shuffle recomputes but BytesRecomputed = 0", recomputes)
			}
			assertBitIdentical(t, "chaos vs clean", want.Model.Factors, got.Model.Factors)
		})
	}
}

// TestChaosKernelChoice asserts DistOptions.Kernel chooses nothing: a solve
// that names KernelSpMV, under a seeded fault plan (task failures plus a
// mid-run machine kill), must recover to factors bit-identical to a
// failure-free solve with the zero value, and shuffle exactly the same bytes.
// The field is inert (benchmark/ compiles against it), and inert by test.
func TestChaosKernelChoice(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 5, Tol: 0, Seed: 62}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, DistOptions{Options: opts, GridPartition: true})
	if err != nil {
		t.Fatalf("clean: %v", err)
	}

	chaos := rdd.MustNewCluster(rdd.Config{Machines: 3, Fault: &rdd.FaultPlan{
		Seed:            7,
		TaskFailureProb: 0.25,
		KillMachine:     1,
		KillAtStage:     5,
	}})
	defer chaos.Close()
	got, err := CompleteDistributed(chaos, d.Tensor, d.Sims, DistOptions{Options: opts, GridPartition: true, Kernel: KernelSpMV})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}

	var kills int
	for _, ev := range chaos.Recoveries() {
		if ev.Kind == rdd.RecoveryMachineKill {
			kills++
		}
	}
	if kills != 1 {
		t.Errorf("recovery log has %d machine kills, want 1", kills)
	}
	if retries := chaos.Metrics().TaskRetries.Load(); retries == 0 {
		t.Error("chaos run retried no tasks")
	}
	if chaosShuffled, cleanShuffled := chaos.Metrics().BytesShuffled.Load(), clean.Metrics().BytesShuffled.Load(); chaosShuffled != cleanShuffled {
		t.Errorf("chaos BytesShuffled = %d, clean = %d", chaosShuffled, cleanShuffled)
	}
	assertBitIdentical(t, "Kernel: KernelSpMV under chaos vs the zero value", want.Model.Factors, got.Model.Factors)
}

// TestChaosSpeculationStragglers is the straggler-mitigation acceptance test:
// a distributed solve under a seeded straggler plan with speculative
// execution enabled must produce factors bit-identical to a failure-free
// solve in both engine modes (duplicate attempts never corrupt results or
// exactly-once totals), finish faster than the same straggler plan without
// speculation, and surface the backup attempts in the metrics and recovery
// log — all of it complete the moment the solve returns. Twelve partitions
// let a stage reach the 75 % committed quorum with up to three stragglers.
func TestChaosSpeculationStragglers(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 71)
	opts := DistOptions{Options: Options{Rank: 3, MaxIter: 4, Tol: 0, Seed: 72}, Partitions: 12}
	plan := func() *rdd.FaultPlan {
		return &rdd.FaultPlan{Seed: 11, StragglerProb: 0.2, StragglerDelay: 60 * time.Millisecond}
	}

	for _, tc := range []struct {
		name string
		mode rdd.Mode
	}{
		{"in-memory", rdd.ModeInMemory},
		{"mapreduce", rdd.ModeMapReduce},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := rdd.MustNewCluster(rdd.Config{Machines: 3, Mode: tc.mode})
			defer clean.Close()
			want, err := CompleteDistributed(clean, d.Tensor, d.Sims, opts)
			if err != nil {
				t.Fatal(err)
			}

			slow := rdd.MustNewCluster(rdd.Config{Machines: 3, Mode: tc.mode, Fault: plan()})
			start := time.Now()
			if _, err := CompleteDistributed(slow, d.Tensor, d.Sims, opts); err != nil {
				t.Fatal(err)
			}
			slowWall := time.Since(start)
			slow.Close()

			fast := rdd.MustNewCluster(rdd.Config{
				Machines: 3, Mode: tc.mode, Fault: plan(), Speculation: true,
			})
			defer fast.Close()
			start = time.Now()
			got, err := CompleteDistributed(fast, d.Tensor, d.Sims, opts)
			if err != nil {
				t.Fatal(err)
			}
			fastWall := time.Since(start)

			assertBitIdentical(t, "speculation vs clean", want.Model.Factors, got.Model.Factors)
			if n := fast.Metrics().SpeculativeTasks.Load(); n == 0 {
				t.Fatal("no backup attempts launched against a 20% straggler plan")
			}
			var stageWasted int64
			for _, s := range fast.StageLog() {
				stageWasted += s.BytesWasted
			}
			if w := fast.Metrics().BytesWasted.Load(); w != stageWasted {
				t.Errorf("BytesWasted = %d, stage rollups sum to %d: a loser's traffic is missing from its stage", w, stageWasted)
			}
			if cleanB, fastB := clean.Metrics().BytesShuffled.Load(), fast.Metrics().BytesShuffled.Load(); fastB != cleanB {
				t.Errorf("BytesShuffled with speculation = %d, clean = %d: a duplicate attempt leaked into the exactly-once counter",
					fastB, cleanB)
			}
			if fastWall >= slowWall {
				t.Errorf("speculation run took %v, no-speculation straggler run took %v: backups bought nothing",
					fastWall, slowWall)
			}
			var wins, losses int
			for _, ev := range fast.Recoveries() {
				switch ev.Kind {
				case rdd.RecoverySpeculativeWin:
					wins++
				case rdd.RecoverySpeculativeLoss:
					losses++
				}
			}
			if wins == 0 || losses == 0 {
				t.Errorf("%d speculative-win and %d speculative-loss recovery events, want both > 0", wins, losses)
			}
			if sum := fast.Summary(); !strings.Contains(sum, rdd.RecoverySpeculativeWin) {
				t.Errorf("Summary does not report speculative wins:\n%s", sum)
			}
		})
	}
}

// TestResumeReproducesSerialRun interrupts a checkpointed serial solve and
// resumes it: the resumed run's factors must match an uninterrupted run
// bit-for-bit.
func TestResumeReproducesSerialRun(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 900, 63)
	base := Options{Rank: 3, Tol: 0, Seed: 64}

	full := base
	full.MaxIter = 8
	want, err := Complete(d.Tensor, d.Sims, full)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.MaxIter = 4
	interrupted.CheckpointEvery = 2
	interrupted.CheckpointDir = dir
	if _, err := Complete(d.Tensor, d.Sims, interrupted); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	resumed := base
	resumed.MaxIter = 8
	resumed.CheckpointEvery = 2
	resumed.CheckpointDir = dir
	got, err := Resume(d.Tensor, d.Sims, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != 8 {
		t.Errorf("resumed run reports %d iterations, want 8", got.Iters)
	}
	assertBitIdentical(t, "resume vs full", want.Model.Factors, got.Model.Factors)
	assertBitIdentical(t, "resume vs full aux", want.Aux, got.Aux)
}

// TestResumeReproducesDistributedRun is the distributed counterpart: an
// interrupted CompleteDistributed resumes from its checkpoint to factors
// bit-identical to an uninterrupted run.
func TestResumeReproducesDistributedRun(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 900, 65)
	base := Options{Rank: 3, Tol: 0, Seed: 66}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	full := DistOptions{Options: base}
	full.MaxIter = 8
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, full)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c1 := rdd.MustNewCluster(rdd.Config{Machines: 3})
	interrupted := DistOptions{Options: base}
	interrupted.MaxIter = 4
	interrupted.CheckpointEvery = 2
	interrupted.CheckpointDir = dir
	_, err = CompleteDistributed(c1, d.Tensor, d.Sims, interrupted)
	c1.Close()
	if err != nil {
		t.Fatal(err)
	}

	c2 := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer c2.Close()
	resumed := DistOptions{Options: base}
	resumed.MaxIter = 8
	resumed.CheckpointDir = dir
	got, err := ResumeDistributed(c2, d.Tensor, d.Sims, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != 8 {
		t.Errorf("resumed run reports %d iterations, want 8", got.Iters)
	}
	assertBitIdentical(t, "distributed resume vs full", want.Model.Factors, got.Model.Factors)
}

// TestResumeAcrossSolvers: both solvers run one loop and checkpoint the
// same state at the same point, so a checkpoint written by Complete resumes
// under ResumeDistributed at Partitions: 1, and one written by
// CompleteDistributed resumes under Resume, each to the factors and Aux of
// the uninterrupted run bit for bit.
func TestResumeAcrossSolvers(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 900, 63)
	base := Options{Rank: 3, MaxIter: 8, Tol: -1, Seed: 64}
	want, err := Complete(d.Tensor, d.Sims, base)
	if err != nil {
		t.Fatal(err)
	}
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	serial := func(o Options) (*Result, error) { return Complete(d.Tensor, d.Sims, o) }
	resumeSerial := func(o Options) (*Result, error) { return Resume(d.Tensor, d.Sims, o) }
	dist := func(o Options) (*Result, error) {
		return CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: o, Partitions: 1})
	}
	resumeDist := func(o Options) (*Result, error) {
		return ResumeDistributed(c, d.Tensor, d.Sims, DistOptions{Options: o, Partitions: 1})
	}
	for _, tc := range []struct {
		name          string
		write, resume func(Options) (*Result, error)
	}{
		{"serial→distributed", serial, resumeDist},
		{"distributed→serial", dist, resumeSerial},
	} {
		interrupted := base
		interrupted.MaxIter = 4
		interrupted.CheckpointEvery = 2
		interrupted.CheckpointDir = t.TempDir()
		if _, err := tc.write(interrupted); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resumed := base
		resumed.CheckpointDir = interrupted.CheckpointDir
		got, err := tc.resume(resumed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Iters != 8 {
			t.Errorf("%s: resumed run reports %d iterations, want 8", tc.name, got.Iters)
		}
		assertBitIdentical(t, tc.name+": factors", want.Model.Factors, got.Model.Factors)
		assertBitIdentical(t, tc.name+": aux", want.Aux, got.Aux)
	}
}

// TestResumeAfterChaoticRun combines the two recovery mechanisms: a
// checkpointed distributed run under a fault plan is resumed on a fresh
// cluster and still matches the clean uninterrupted solve bit-for-bit.
func TestResumeAfterChaoticRun(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 900, 67)
	base := Options{Rank: 3, Tol: 0, Seed: 68}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	full := DistOptions{Options: base}
	full.MaxIter = 8
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, full)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c1 := rdd.MustNewCluster(rdd.Config{Machines: 3, Fault: &rdd.FaultPlan{
		Seed:            9,
		TaskFailureProb: 0.2,
		KillMachine:     2,
		KillAtStage:     3,
	}})
	interrupted := DistOptions{Options: base}
	interrupted.MaxIter = 4
	interrupted.CheckpointEvery = 4
	interrupted.CheckpointDir = dir
	_, err = CompleteDistributed(c1, d.Tensor, d.Sims, interrupted)
	c1.Close()
	if err != nil {
		t.Fatal(err)
	}

	c2 := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer c2.Close()
	resumed := DistOptions{Options: base}
	resumed.MaxIter = 8
	resumed.CheckpointDir = dir
	got, err := ResumeDistributed(c2, d.Tensor, d.Sims, resumed)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "chaotic resume vs clean full", want.Model.Factors, got.Model.Factors)
}

// TestResumeErrors covers the failure modes of the resume API.
func TestResumeErrors(t *testing.T) {
	d := synth.LinearFactorDataset([]int{10, 10, 10}, 2, 300, 69)

	// No directory configured.
	if _, err := Resume(d.Tensor, d.Sims, Options{Rank: 3}); err == nil {
		t.Error("Resume without CheckpointDir succeeded")
	}

	// Directory exists but holds no checkpoint.
	empty := t.TempDir()
	if _, err := Resume(d.Tensor, d.Sims, Options{Rank: 3, CheckpointDir: empty}); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Resume from empty dir: err = %v, want ErrNoCheckpoint", err)
	}

	// CheckpointEvery without a directory is rejected up front.
	if _, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 2, CheckpointEvery: 1}); err == nil {
		t.Error("Complete with CheckpointEvery but no CheckpointDir succeeded")
	}

	// A checkpoint from a different rank is rejected.
	dir := t.TempDir()
	opt := Options{Rank: 3, MaxIter: 2, Tol: 0, Seed: 70, CheckpointEvery: 2, CheckpointDir: dir}
	if _, err := Complete(d.Tensor, d.Sims, opt); err != nil {
		t.Fatal(err)
	}
	mismatch := opt
	mismatch.Rank = 4
	if _, err := Resume(d.Tensor, d.Sims, mismatch); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Resume with wrong rank: err = %v, want ErrDimensionMismatch", err)
	}

	// A corrupt checkpoint file is rejected, not misparsed.
	if err := os.WriteFile(CheckpointPath(dir), []byte("not a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(d.Tensor, d.Sims, opt); err == nil {
		t.Error("Resume from corrupt checkpoint succeeded")
	}
}
