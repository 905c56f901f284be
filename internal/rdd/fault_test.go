package rdd

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestShouldFailLongestPrefixDeterministic is the regression test for the
// map-iteration bug: with overlapping injected prefixes, the longest matching
// prefix's budget must be charged, every time.
func TestShouldFailLongestPrefixDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c := testCluster(t, Config{Machines: 1})
		c.InjectTaskFailures("collect:", 1)
		c.InjectTaskFailures("collect:mttkrp", 1)
		// Both prefixes match: the longer one must be consumed first.
		if !c.shouldFail("collect:mttkrp-reduce") {
			t.Fatal("first matching call did not fail")
		}
		c.mu.Lock()
		long, short := c.failOnce["collect:mttkrp"], c.failOnce["collect:"]
		c.mu.Unlock()
		if long != 0 || short != 1 {
			t.Fatalf("trial %d: budgets after first failure: collect:mttkrp=%d collect:=%d, want 0 and 1", trial, long, short)
		}
		// Second call still matches the short prefix.
		if !c.shouldFail("collect:mttkrp-reduce") {
			t.Fatal("second matching call did not fail")
		}
		// Budgets exhausted.
		if c.shouldFail("collect:mttkrp-reduce") {
			t.Fatal("third call failed with no budget left")
		}
	}
}

// TestExactlyOnceMetricsUnderRetry is the exactly-once regression test: disk
// and shuffle bytes produced by attempts that fail partway through must land
// in BytesWasted, not the committed counters, so a retried run's totals match
// a failure-free run. ModeMapReduce makes the reduce-side fetch charge
// disk-read traffic before the injected mid-task failure.
func TestExactlyOnceMetricsUnderRetry(t *testing.T) {
	run := func(inject bool) (*Cluster, MetricsSnapshot) {
		c := testCluster(t, Config{Machines: 3, Mode: ModeMapReduce})
		pairs := make([]slabRec, 60)
		for i := range pairs {
			pairs[i] = kv(i%6, i)
		}
		// keyedSum routes key k to partition k mod 3, so partition 0 is never
		// empty: the injected failure below must hit an attempt that already
		// charged shuffle-read traffic.
		red := keyedSum(Parallelize(c, "pairs", pairs, 6), "sums", 3)
		var failed atomic.Bool
		out := MapPartitions(red, "post", func(tc *TaskCtx, p int, in []slabRec) ([]slabRec, error) {
			// Fail one attempt after the shuffle fetch already charged disk
			// reads to this task.
			if inject && p == 0 && failed.CompareAndSwap(false, true) {
				return nil, errInjectedForTest(tc.Machine, p)
			}
			return in, nil
		})
		if _, err := out.Collect(); err != nil {
			t.Fatal(err)
		}
		return c, c.Metrics().Snapshot()
	}

	_, clean := run(false)
	faulted, retried := run(true)
	if retried.TaskRetries != 1 {
		t.Fatalf("retries = %d, want 1", retried.TaskRetries)
	}
	if retried.BytesShuffled != clean.BytesShuffled {
		t.Errorf("BytesShuffled %d under retry != %d clean: failed attempt leaked into the exactly-once counter",
			retried.BytesShuffled, clean.BytesShuffled)
	}
	if retried.DiskBytesRead != clean.DiskBytesRead {
		t.Errorf("DiskBytesRead %d under retry != %d clean: failed attempt's fetch leaked into the exactly-once counter",
			retried.DiskBytesRead, clean.DiskBytesRead)
	}
	if clean.BytesWasted != 0 {
		t.Errorf("clean run wasted %d bytes", clean.BytesWasted)
	}
	if retried.BytesWasted == 0 {
		t.Error("failed attempt's traffic did not land in BytesWasted")
	}
	var stageWasted int64
	for _, s := range faulted.StageLog() {
		stageWasted += s.BytesWasted
	}
	if retried.BytesWasted != stageWasted {
		t.Errorf("Metrics.BytesWasted=%d but stage rollups sum to %d", retried.BytesWasted, stageWasted)
	}
}

// TestAccumulatorExactlyOnceUnderRetry shows the two ways a task can feed a
// driver-side counter side by side: an add deferred through tc.OnSuccess (how
// Collect, Reduce and the shuffle publish step install their results) counts
// each partition exactly once under retry, while a plain add before the
// failure point double-counts (documenting why the hook exists).
func TestAccumulatorExactlyOnceUnderRetry(t *testing.T) {
	c := testCluster(t, Config{Machines: 3})
	var exact, leaky, injected atomic.Int64
	r := Parallelize(c, "nums", ints(40), 4)
	err := r.ForeachPartition(func(tc *TaskCtx, p int, items []int) error {
		n := int64(len(items))
		leaky.Add(n)                          // plain add before the failure point: double-counts
		tc.OnSuccess(func() { exact.Add(n) }) // deferred: committed only on success
		if injected.Add(1) <= 2 {             // fail the first two attempts after their adds ran
			return errInjectedForTest(tc.Machine, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Load(); got != 40 {
		t.Errorf("OnSuccess total = %d, want exactly 40", got)
	}
	// Each of the 4 partitions holds 10 items; the 2 failed attempts each
	// leaked their add, so the plain counter over-counts to exactly 60.
	if got := leaky.Load(); got != 60 {
		t.Errorf("plain add total = %d; expected the documented over-count of 60", got)
	}
}

// errInjectedForTest builds a retryable failure for closures that fail after
// their side effects ran.
func errInjectedForTest(m, p int) error {
	return fmt.Errorf("injected post-add failure on machine %d task %d: %w", m, p, errRetryable)
}

// TestRetryPlacementSingleMachine: with one machine, a retry must re-land on
// it (the old (m+1)%Machines arithmetic happened to do this; the dead-machine
// skip must keep doing it).
func TestRetryPlacementSingleMachine(t *testing.T) {
	c := testCluster(t, Config{Machines: 1})
	c.InjectTaskFailures("collect:solo", 1)
	r := Parallelize(c, "solo", ints(10), 2)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("collected %d", len(got))
	}
	if c.Metrics().TaskRetries.Load() != 1 {
		t.Fatalf("retries = %d, want 1", c.Metrics().TaskRetries.Load())
	}
}

// TestRetryPlacementSkipsDeadMachine: after a kill, no attempt may be placed
// on the dead machine.
func TestRetryPlacementSkipsDeadMachine(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, TaskTrace: true})
	c.KillMachine(1)
	r := Parallelize(c, "survivors", ints(30), 6)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Trace() {
		if tr.Machine == 1 {
			t.Fatalf("task %s[%d] placed on dead machine 1", tr.Stage, tr.Partition)
		}
	}
}

// TestNoHealthyMachineFailsFast: killing every machine must produce a clear
// error, not a hang or a placement on a corpse.
func TestNoHealthyMachineFailsFast(t *testing.T) {
	c := testCluster(t, Config{Machines: 2})
	c.KillMachine(0)
	c.KillMachine(1)
	_, err := Parallelize(c, "doomed", ints(10), 2).Collect()
	if err == nil {
		t.Fatal("expected failure with all machines dead")
	}
	if !strings.Contains(err.Error(), "no healthy machine") {
		t.Fatalf("error %q does not name the cause", err)
	}
}

// TestKillMachineEvictsCache: killing a machine must release its cached
// partitions' memory and lineage must recompute them on survivors.
func TestKillMachineEvictsCache(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, MemoryPerMachine: 1 << 20})
	r := Parallelize(c, "pinned", sized(300), 6).Cache()
	if err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	victim := 1
	before := c.UsedMemory(victim)
	if before == 0 {
		t.Fatal("no cached bytes on the victim machine")
	}
	c.KillMachine(victim)
	if got := c.UsedMemory(victim); got != 0 {
		t.Fatalf("dead machine still charged %d bytes", got)
	}
	// A dead machine holds nothing: a declared allocation aimed at it, even
	// one over the budget, is skipped rather than charged or refused.
	if err := c.Charge(victim, 2<<20); err != nil || c.UsedMemory(victim) != 0 {
		t.Fatalf("Charge on the dead machine: err = %v, charged %d bytes", err, c.UsedMemory(victim))
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("collected %d after recompute", len(got))
	}
	var evicts, kills int
	for _, ev := range c.Recoveries() {
		switch ev.Kind {
		case RecoveryCacheEvict:
			evicts++
		case RecoveryMachineKill:
			kills++
		}
	}
	if kills != 1 || evicts == 0 {
		t.Fatalf("recovery log: kills=%d cache evicts=%d", kills, evicts)
	}
	// The recomputed partitions must now be cached on survivors only.
	if err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if c.UsedMemory(victim) != 0 {
		t.Fatal("recompute re-cached onto the dead machine")
	}
}

// TestKillMachineRecomputesShuffleOutput: in-memory map outputs on the dead
// machine are lost and must be recomputed from lineage by the fetching task.
func TestKillMachineRecomputesShuffleOutput(t *testing.T) {
	c := testCluster(t, Config{Machines: 3})
	pairs := make([]slabRec, 90)
	for i := range pairs {
		pairs[i] = kv(i%9, i)
	}
	r := keyedSum(Parallelize(c, "pairs", pairs, 6), "sums", 3)
	// Run the map stage, then kill a machine before the reduce fetches.
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(0)
	got, err := collectKeyed(r)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyed(t, got, keyedWant(pairs))
	var recomputes, evicts int
	for _, ev := range c.Recoveries() {
		switch ev.Kind {
		case RecoveryShuffleRecompute:
			recomputes++
		case RecoveryShuffleEvict:
			evicts++
		}
	}
	if evicts == 0 || recomputes == 0 {
		t.Fatalf("recovery log: shuffle evicts=%d recomputes=%d, want both > 0", evicts, recomputes)
	}
}

// TestKillMachineSparesDiskShuffle: a ModeMapReduce exchange models
// replicated HDFS storage — a machine kill must not invalidate it.
func TestKillMachineSparesDiskShuffle(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, Mode: ModeMapReduce})
	pairs := make([]slabRec, 60)
	for i := range pairs {
		pairs[i] = kv(i%6, 1)
	}
	r := keyedSum(Parallelize(c, "pairs", pairs, 6), "counts", 3)
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(2)
	got, err := collectKeyed(r)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyed(t, got, keyedWant(pairs))
	for _, ev := range c.Recoveries() {
		if ev.Kind == RecoveryShuffleEvict || ev.Kind == RecoveryShuffleRecompute {
			t.Fatalf("disk-backed shuffle reported %s after kill", ev.Kind)
		}
	}
}

// TestTaskRunningOnKilledMachineIsRetried: a task whose machine dies mid-run
// must have its attempt discarded and re-run on a survivor.
func TestTaskRunningOnKilledMachineIsRetried(t *testing.T) {
	c := testCluster(t, Config{Machines: 2, CoresPerMachine: 1, TaskTrace: true})
	killed := make(chan struct{})
	r := Parallelize(c, "longrun", ints(20), 2)
	err := r.ForeachPartition(func(tc *TaskCtx, p int, items []int) error {
		if tc.Machine == 0 && !tc.c.machineDead(0) {
			// First attempt on machine 0: kill it from a helper goroutine
			// (KillMachine is driver-side API) and wait for the corpse.
			go func() { tc.c.KillMachine(0); close(killed) }()
			<-killed
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().TaskRetries.Load() == 0 {
		t.Fatal("no retry recorded for the attempt that outlived its machine")
	}
	var sawDiscard bool
	for _, tr := range c.Trace() {
		if strings.Contains(tr.Error, "died while running") {
			sawDiscard = true
		}
	}
	if !sawDiscard {
		t.Fatal("task trace does not show the machine-loss discard")
	}
}

// TestFaultPlanDeterministicInjection: the same plan injects the same number
// of failures on every run, and the plan never fails a retry.
func TestFaultPlanDeterministicInjection(t *testing.T) {
	run := func() int64 {
		c := testCluster(t, Config{
			Machines: 3,
			Fault:    &FaultPlan{Seed: 11, TaskFailureProb: 0.5},
		})
		r := Parallelize(c, "planned", ints(100), 10)
		for round := 0; round < 3; round++ {
			if _, err := r.Collect(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Metrics().TaskRetries.Load()
	}
	first := run()
	if first == 0 {
		t.Fatal("plan with prob 0.5 injected nothing")
	}
	for trial := 0; trial < 3; trial++ {
		if got := run(); got != first {
			t.Fatalf("trial %d injected %d failures, first run %d — plan is not deterministic", trial, got, first)
		}
	}
}

// TestFaultPlanKillAtStage fires the kill exactly when the configured stage
// starts.
func TestFaultPlanKillAtStage(t *testing.T) {
	c := testCluster(t, Config{
		Machines: 3,
		Fault:    &FaultPlan{KillMachine: 1, KillAtStage: 2},
	})
	r := Parallelize(c, "staged", ints(30), 3)
	for round := 0; round < 4; round++ {
		if _, err := r.Collect(); err != nil {
			t.Fatal(err)
		}
		alive := c.HealthyMachines()
		if round < 2 && alive != 3 {
			t.Fatalf("machine killed before stage 2 (after stage %d)", round)
		}
		if round >= 2 && alive != 2 {
			t.Fatalf("kill did not fire by stage %d", round)
		}
	}
	if !c.machineDead(1) {
		t.Fatal("wrong machine killed")
	}
}

// TestFaultPlanStragglerShowsInSkew: straggler delays must land inside task
// timing.
func TestFaultPlanStragglerShowsInSkew(t *testing.T) {
	c := testCluster(t, Config{
		Machines: 2,
		Fault:    &FaultPlan{Seed: 3, StragglerProb: 0.3, StragglerDelay: 20 * time.Millisecond},
	})
	r := Parallelize(c, "slowpoke", ints(64), 8)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	var maxTask time.Duration
	for _, s := range c.StageLog() {
		if s.MaxTask > maxTask {
			maxTask = s.MaxTask
		}
	}
	if maxTask < 20*time.Millisecond {
		t.Fatalf("max task %v does not include the straggler delay", maxTask)
	}
}

// TestParseFaultPlan covers the CLI spec round trip and its error cases.
func TestParseFaultPlan(t *testing.T) {
	f, err := ParseFaultPlan("seed=7,failprob=0.02,maxfail=10,kill=1@5,stragglerprob=0.05,stragglerdelay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{Seed: 7, TaskFailureProb: 0.02, MaxTaskFailures: 10,
		KillMachine: 1, KillAtStage: 5, KillSet: true, StragglerProb: 0.05, StragglerDelay: 5 * time.Millisecond}
	if *f != want {
		t.Fatalf("parsed %+v, want %+v", *f, want)
	}
	for _, bad := range []struct{ spec, field string }{
		{"frobnicate=1", "frobnicate"},
		{"kill=3", "kill"},
		{"failprob=x", "failprob"},
		{"seed", "seed"},
		{"failprob=NaN", "failprob"},
		{"failprob=1.5", "failprob"},
		{"stragglerprob=-0.5", "stragglerprob"},
		{"maxfail=-3", "maxfail"},
		{"kill=1@-2", "kill"},
		{"stragglerdelay=-5ms", "stragglerdelay"},
	} {
		if _, err := ParseFaultPlan(bad.spec); err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Errorf("ParseFaultPlan(%q) = %v, want an error naming %s", bad.spec, err, bad.field)
		}
	}
}

// FuzzParseFaultPlan: the -fault-plan flag's parser never panics, and a plan
// it accepts holds only values the scheduler can honour.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"seed=7,failprob=0.02,maxfail=10,kill=1@5,stragglerprob=0.05,stragglerdelay=5ms",
		"kill=1@0", "failprob=NaN", "maxfail=-3", "stragglerdelay=-5ms", ",,", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		if !(p.TaskFailureProb >= 0 && p.TaskFailureProb <= 1) || !(p.StragglerProb >= 0 && p.StragglerProb <= 1) {
			t.Fatalf("%q: probabilities %v, %v outside [0, 1]", spec, p.TaskFailureProb, p.StragglerProb)
		}
		if p.MaxTaskFailures < 0 || p.KillAtStage < 0 || p.StragglerDelay < 0 {
			t.Fatalf("%q: negative field in %+v", spec, *p)
		}
	})
}

// TestTaskRetryBudget pins maxTaskRetries: a task survives two consecutive
// injected failures with two retries, and a third fails the stage.
func TestTaskRetryBudget(t *testing.T) {
	c := testCluster(t, Config{Machines: 1})
	c.InjectTaskFailures("collect:stubborn", 2)
	got, err := Parallelize(c, "stubborn", ints(10), 1).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("collected %d", len(got))
	}
	if n := c.Metrics().TaskRetries.Load(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}

	c2 := testCluster(t, Config{Machines: 2})
	c2.InjectTaskFailures("collect:fragile", 3)
	if _, err := Parallelize(c2, "fragile", ints(10), 1).Collect(); !errors.Is(err, errRetryable) {
		t.Fatalf("three failures of one task returned %v, want the third's retryable error", err)
	}
	if n := c2.Metrics().TaskRetries.Load(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
}

// TestSummaryReportsRecovery: the Summary table must carry the recovery story.
func TestSummaryReportsRecovery(t *testing.T) {
	c := testCluster(t, Config{Machines: 3})
	c.InjectTaskFailures("collect:observed", 1)
	r := Parallelize(c, "observed", sized(30), 3).Cache()
	if err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(2)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	sum := c.Summary()
	for _, want := range []string{"wastedB", "recovery events:", RecoveryMachineKill, RecoveryTaskRetry} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
}

// TestKillMachineIdempotentAndBounded: double kills are no-ops; out-of-range
// panics.
func TestKillMachineIdempotentAndBounded(t *testing.T) {
	c := testCluster(t, Config{Machines: 2})
	c.KillMachine(0)
	c.KillMachine(0)
	kills := 0
	for _, ev := range c.Recoveries() {
		if ev.Kind == RecoveryMachineKill {
			kills++
		}
	}
	if kills != 1 {
		t.Fatalf("double kill recorded %d events", kills)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KillMachine(99) did not panic")
		}
	}()
	c.KillMachine(99)
}

// TestRetryableErrorStillRetryable guards the errRetryable wrapping used by
// machine-loss discards.
func TestRetryableErrorStillRetryable(t *testing.T) {
	if !errors.Is(errInjectedForTest(0, 0), errRetryable) {
		t.Fatal("test error does not unwrap to errRetryable")
	}
}
