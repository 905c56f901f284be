package rdd

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// slowOnPrimary builds a partition closure where partition 0's first
// placement (machine 0, its preferred location) sleeps for d inside its body
// while every other attempt returns immediately — a deterministic straggler
// that a backup attempt on any other machine beats, and that the engine
// cannot cut short.
func slowOnPrimary(d time.Duration) func(tc *TaskCtx, p int, in []int) ([]int, error) {
	return func(tc *TaskCtx, p int, in []int) ([]int, error) {
		if p == 0 && tc.Machine == 0 {
			time.Sleep(d)
		}
		tc.CountShuffled(1000)
		return in, nil
	}
}

// stragglerPlan returns a fault plan under which exactly n of the parts
// partitions of stages[0] straggle for delay on their first attempt, and no
// partition of the other stages does. It searches seeds with faultHash, the
// function planStraggle decides by.
func stragglerPlan(t *testing.T, parts, n int, delay time.Duration, stages ...string) *FaultPlan {
	t.Helper()
	const prob = 0.2
	for seed := uint64(0); seed < 10_000; seed++ {
		ok := true
		for i, stage := range stages {
			k := 0
			for p := 0; p < parts; p++ {
				if faultHash(seed, stage, p, 0, saltStraggle) < prob {
					k++
				}
			}
			if i == 0 && k != n || i > 0 && k != 0 {
				ok = false
				break
			}
		}
		if ok {
			return &FaultPlan{Seed: seed, StragglerProb: prob, StragglerDelay: delay}
		}
	}
	t.Fatalf("no seed gives %d straggler(s) among %d partitions of %v", n, parts, stages)
	return nil
}

// stageWasted sums the per-stage BytesWasted rollups.
func stageWasted(c *Cluster) (n int64) {
	for _, s := range c.StageLog() {
		n += s.BytesWasted
	}
	return n
}

// TestSpeculationBackupWinsStraggler is speculation end to end: a planned
// straggler is out-raced by a backup attempt on a different machine, its
// delay is cut short by the commit so the stage ends long before the delay
// would have, exactly one attempt per partition commits, and the byte and
// event accounting is complete the moment Collect returns.
func TestSpeculationBackupWinsStraggler(t *testing.T) {
	const delay = 5 * time.Second
	c := testCluster(t, Config{
		Machines: 4, CoresPerMachine: 2, TaskTrace: true, Speculation: true,
		Fault: stragglerPlan(t, 8, 1, delay, "collect:slow"),
	})
	var exact atomic.Int64
	r := MapPartitions(Parallelize(c, "nums", ints(80), 8), "slow",
		func(tc *TaskCtx, p int, in []int) ([]int, error) {
			tc.CountShuffled(1000)
			tc.OnSuccess(func() { exact.Add(int64(len(in))) })
			return in, nil
		})
	stageStart := time.Now()
	got, err := r.Collect()
	wall := time.Since(stageStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 {
		t.Fatalf("collected %d elements, want 80", len(got))
	}
	if wall >= delay {
		t.Errorf("stage took %v, not faster than the %v straggler: speculation gained nothing", wall, delay)
	}

	if n := c.Metrics().SpeculativeTasks.Load(); n < 1 {
		t.Fatalf("SpeculativeTasks = %d, want >= 1", n)
	}
	if v := exact.Load(); v != 80 {
		t.Errorf("OnSuccess total = %d, want exactly 80 (one commit per partition)", v)
	}
	m := c.Metrics().Snapshot()
	if m.BytesShuffled != 8*1000 {
		t.Errorf("BytesShuffled = %d, want exactly %d: a duplicate attempt leaked into the exactly-once counter", m.BytesShuffled, 8*1000)
	}
	if m.BytesWasted%1000 != 0 || m.BytesWasted != stageWasted(c) {
		t.Errorf("Metrics.BytesWasted = %d, stage rollups sum to %d: want equal multiples of 1000", m.BytesWasted, stageWasted(c))
	}
	var stageSpec int
	for _, s := range c.StageLog() {
		stageSpec += s.SpeculativeTasks
	}
	if stageSpec < 1 {
		t.Errorf("no StageRecord counts a speculative task")
	}

	var launches, wins, losses int
	for _, ev := range c.Recoveries() {
		switch ev.Kind {
		case RecoverySpeculativeLaunch:
			launches++
		case RecoverySpeculativeWin:
			wins++
		case RecoverySpeculativeLoss:
			losses++
		}
	}
	if launches < 1 || wins < 1 || losses < 1 {
		t.Errorf("recovery log: launches=%d wins=%d losses=%d, want all >= 1", launches, wins, losses)
	}
	var sawBackupSpan, sawCutStraggler bool
	for _, tr := range c.Trace() {
		if tr.Speculative {
			sawBackupSpan = true
			if tr.Attempt != speculativeAttempt {
				t.Errorf("backup span attempt = %d, want %d", tr.Attempt, speculativeAttempt)
			}
		}
		if tr.Error == errObsolete.Error() {
			sawCutStraggler = true
			if tr.Run >= delay || tr.BytesShuffled != 0 {
				t.Errorf("out-raced straggler ran %v and shuffled %d B; want its delay cut short and its body skipped", tr.Run, tr.BytesShuffled)
			}
		}
	}
	if !sawBackupSpan {
		t.Error("task trace has no span for the backup attempt")
	}
	if !sawCutStraggler {
		t.Error("task trace has no span for the out-raced straggler")
	}
}

// TestSpeculationLoserDrainsAsLoss: a straggler the engine cannot cut short
// (its delay is inside the task body) is waited for — the stage returns only
// after it has finished — and is logged as a speculative loss whose traffic
// is wasted, with no OnSuccess hook fired.
func TestSpeculationLoserDrainsAsLoss(t *testing.T) {
	c := testCluster(t, Config{Machines: 4, CoresPerMachine: 2, Speculation: true})
	var stragglerEnded atomic.Bool
	var hooks atomic.Int64
	slow := slowOnPrimary(300 * time.Millisecond)
	r := MapPartitions(Parallelize(c, "nums", ints(40), 8), "slow",
		func(tc *TaskCtx, p int, in []int) ([]int, error) {
			if p == 0 && tc.Machine == 0 {
				defer stragglerEnded.Store(true)
			}
			tc.OnSuccess(func() { hooks.Add(1) })
			return slow(tc, p, in)
		})
	if err := r.ForeachPartition(func(tc *TaskCtx, p int, items []int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().SpeculativeTasks.Load() < 1 {
		t.Fatal("no backup launched against the straggler")
	}
	if !stragglerEnded.Load() {
		t.Fatal("the stage returned while the straggler's body was still running")
	}
	if n := hooks.Load(); n != 8 {
		t.Errorf("OnSuccess fired %d times, want once per partition (8)", n)
	}
	var losses int
	for _, ev := range c.Recoveries() {
		if ev.Kind == RecoverySpeculativeLoss {
			losses++
			if !strings.Contains(ev.Cause, "lost the commit race") {
				t.Errorf("loss cause %q does not name the race", ev.Cause)
			}
		}
	}
	if losses < 1 {
		t.Fatalf("no speculative-loss event after the straggler drained (recoveries: %+v)", c.Recoveries())
	}
	if w := c.Metrics().BytesWasted.Load(); w < 1000 || w%1000 != 0 || w != stageWasted(c) {
		t.Errorf("Metrics.BytesWasted = %d, stage rollups sum to %d: want equal positive multiples of 1000", w, stageWasted(c))
	}
}

// TestSpeculationQuietWithoutStragglers: with speculation enabled but no
// stragglers, no backups launch (specMinDuration floors the cutoff above the
// noise) and the exactly-once totals are identical to a speculation-off run.
func TestSpeculationQuietWithoutStragglers(t *testing.T) {
	run := func(speculate bool) (map[int]int, MetricsSnapshot) {
		c := testCluster(t, Config{Machines: 3, Speculation: speculate})
		pairs := make([]slabRec, 90)
		for i := range pairs {
			pairs[i] = kv(i%9, i)
		}
		vals, err := collectKeyed(keyedSum(Parallelize(c, "pairs", pairs, 6), "sums", 3))
		if err != nil {
			t.Fatal(err)
		}
		return vals, c.Metrics().Snapshot()
	}
	offVals, off := run(false)
	onVals, on := run(true)
	if on.SpeculativeTasks != 0 {
		t.Errorf("straggler-free run launched %d backups", on.SpeculativeTasks)
	}
	if on.BytesShuffled != off.BytesShuffled || on.BytesWasted != off.BytesWasted {
		t.Errorf("speculation-on totals (shuffled=%d wasted=%d) differ from off (shuffled=%d wasted=%d)",
			on.BytesShuffled, on.BytesWasted, off.BytesShuffled, off.BytesWasted)
	}
	if len(onVals) != len(offVals) {
		t.Fatalf("result cardinality differs: %d vs %d", len(onVals), len(offVals))
	}
}

// TestSpeculationDisabledUnderSerializeTasks: SerializeTasks wins — a backup
// would deadlock behind the straggler's serial lock, so the monitor must not
// run at all.
func TestSpeculationDisabledUnderSerializeTasks(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, SerializeTasks: true, Speculation: true})
	if c.speculating() {
		t.Fatal("speculating() with SerializeTasks set")
	}
	if _, err := Parallelize(c, "serial", ints(30), 6).Collect(); err != nil {
		t.Fatal(err)
	}
	if n := c.Metrics().SpeculativeTasks.Load(); n != 0 {
		t.Fatalf("launched %d backups under SerializeTasks", n)
	}
}

// TestFaultPlanKillAtStageZero is the dead-zone regression test: kill=M@0
// parses to an armed plan and fires before the very first stage runs.
func TestFaultPlanKillAtStageZero(t *testing.T) {
	f, err := ParseFaultPlan("kill=1@0")
	if err != nil {
		t.Fatal(err)
	}
	if !f.KillSet || f.KillAtStage != 0 {
		t.Fatalf("parsed %+v: kill=1@0 did not arm the sentinel", *f)
	}
	c := testCluster(t, Config{Machines: 3, TaskTrace: true, Fault: f})
	if _, err := Parallelize(c, "stagezero", ints(30), 6).Collect(); err != nil {
		t.Fatal(err)
	}
	if !c.machineDead(1) {
		t.Fatal("kill=1@0 never fired — the stage-0 dead zone is back")
	}
	for _, tr := range c.Trace() {
		if tr.Machine == 1 && tr.Error == "" {
			t.Fatalf("task %s[%d] committed on machine 1, which was dead from stage 0", tr.Stage, tr.Partition)
		}
	}
}

// TestShuffleRecomputeSingleFlight is the lock-convoy regression test: with
// several map outputs lost and many reduce tasks fetching concurrently, each
// lost output is recomputed exactly once (single-flight), not once per
// waiter, and the recomputed traffic lands in BytesRecomputed so
// BytesShuffled stays bit-equal to a clean run.
func TestShuffleRecomputeSingleFlight(t *testing.T) {
	pairs := make([]slabRec, 240)
	for i := range pairs {
		pairs[i] = kv(i%16, i)
	}
	build := func(c *Cluster) *RDD[slabRec] {
		return keyedSum(Parallelize(c, "pairs", pairs, 6), "sums", 8)
	}

	clean := testCluster(t, Config{Machines: 3})
	if _, err := build(clean).Collect(); err != nil {
		t.Fatal(err)
	}
	cleanBytes := clean.Metrics().BytesShuffled.Load()

	c := testCluster(t, Config{Machines: 3})
	r := build(c)
	// Materialize the map outputs, then kill machine 0 — map partitions 0
	// and 3 prefer it, so at least two outputs are lost before the 8 reduce
	// tasks fetch concurrently.
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(0)
	got, err := collectKeyed(r)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyed(t, got, keyedWant(pairs))

	recomputedParts := map[int]int{}
	for _, ev := range c.Recoveries() {
		if ev.Kind == RecoveryShuffleRecompute {
			recomputedParts[ev.Partition]++
		}
	}
	if len(recomputedParts) < 2 {
		t.Fatalf("only %d lost map outputs recomputed, want >= 2 (placement drift?)", len(recomputedParts))
	}
	for mp, n := range recomputedParts {
		if n != 1 {
			t.Errorf("map output %d recomputed %d times: single-flight failed", mp, n)
		}
	}
	m := c.Metrics().Snapshot()
	if m.BytesShuffled != cleanBytes {
		t.Errorf("BytesShuffled after kill = %d, clean run = %d: recompute double-counted Lemma 3 traffic",
			m.BytesShuffled, cleanBytes)
	}
	if m.BytesRecomputed == 0 {
		t.Error("BytesRecomputed = 0 after lineage recomputes")
	}
}
