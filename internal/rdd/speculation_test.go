package rdd

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// slowOnPrimary builds a partition closure where partition 0's first
// placement (machine 0, its preferred location) sleeps for d while every
// other attempt returns immediately — a deterministic straggler that a
// backup attempt on any other machine beats.
func slowOnPrimary(d time.Duration) func(tc *TaskCtx, p int, in []int) ([]int, error) {
	return func(tc *TaskCtx, p int, in []int) ([]int, error) {
		if p == 0 && tc.Machine == 0 {
			time.Sleep(d)
		}
		tc.CountShuffled(1000)
		return in, nil
	}
}

// TestSpeculationBackupWinsStraggler is the tentpole's end-to-end unit test:
// a deterministic straggler is out-raced by a backup attempt on a different
// machine, the stage resolves without waiting for the straggler, exactly one
// attempt per partition commits, and the loser's traffic lands in
// BytesWasted once it drains.
func TestSpeculationBackupWinsStraggler(t *testing.T) {
	const sleep = 500 * time.Millisecond
	c := testCluster(t, Config{
		Machines: 4, CoresPerMachine: 2, TaskTrace: true,
		Speculation: SpeculationConfig{
			Enabled: true, Quantile: 0.5, Multiplier: 2, MinDuration: 5 * time.Millisecond,
		},
	})
	var exact atomic.Int64
	r := MapPartitions(Parallelize(c, "nums", ints(80), 8), "slow",
		func(tc *TaskCtx, p int, in []int) ([]int, error) {
			out, err := slowOnPrimary(sleep)(tc, p, in)
			if err != nil {
				return nil, err
			}
			tc.OnSuccess(func() { exact.Add(int64(len(in))) })
			return out, nil
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
	if wall >= sleep {
		t.Errorf("stage took %v, not faster than the %v straggler: speculation gained nothing", wall, sleep)
	}
	c.Quiesce() // drain the losing straggler before reading totals

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
	if m.BytesWasted < 1000 || m.BytesWasted%1000 != 0 {
		t.Errorf("BytesWasted = %d, want a positive multiple of 1000 (losing attempts' traffic)", m.BytesWasted)
	}
	var stageWasted int64
	var stageSpec int
	for _, s := range c.StageLog() {
		stageWasted += s.BytesWasted
		stageSpec += s.SpeculativeTasks
	}
	if stageWasted != m.BytesWasted {
		t.Errorf("Metrics.BytesWasted=%d but stage rollups sum to %d (late loser not folded into its record)", m.BytesWasted, stageWasted)
	}
	if stageSpec < 1 {
		t.Errorf("no StageRecord counts a speculative task")
	}

	var launches, wins int
	for _, ev := range c.Recoveries() {
		switch ev.Kind {
		case RecoverySpeculativeLaunch:
			launches++
		case RecoverySpeculativeWin:
			wins++
		}
	}
	if launches < 1 || wins < 1 {
		t.Errorf("recovery log: launches=%d wins=%d, want both >= 1", launches, wins)
	}
	var sawBackupSpan bool
	for _, tr := range c.Trace() {
		if tr.Speculative {
			sawBackupSpan = true
			if tr.Attempt != speculativeAttempt {
				t.Errorf("backup span attempt = %d, want %d", tr.Attempt, speculativeAttempt)
			}
		}
	}
	if !sawBackupSpan {
		t.Error("task trace has no span for the backup attempt")
	}
}

// TestSpeculationLoserDrainsAsLoss: once the straggler finally finishes, its
// attempt must be logged as a speculative loss and never fire OnSuccess
// hooks.
func TestSpeculationLoserDrainsAsLoss(t *testing.T) {
	c := testCluster(t, Config{
		Machines: 4, CoresPerMachine: 2,
		Speculation: SpeculationConfig{
			Enabled: true, Quantile: 0.5, Multiplier: 2, MinDuration: 5 * time.Millisecond,
		},
	})
	r := MapPartitions(Parallelize(c, "nums", ints(40), 8), "slow",
		slowOnPrimary(300*time.Millisecond))
	if err := r.ForeachPartition(func(tc *TaskCtx, p int, items []int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
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
}

// TestSpeculationQuietWithoutStragglers: with speculation enabled but no
// stragglers, no backups launch (MinDuration floors the cutoff above the
// noise) and the exactly-once totals are identical to a speculation-off run.
func TestSpeculationQuietWithoutStragglers(t *testing.T) {
	run := func(spec SpeculationConfig) (map[int]int, MetricsSnapshot) {
		c := testCluster(t, Config{Machines: 3, Speculation: spec})
		pairs := make([]slabRec, 90)
		for i := range pairs {
			pairs[i] = kv(i%9, i)
		}
		vals, err := collectKeyed(keyedSum(Parallelize(c, "pairs", pairs, 6), "sums", 3))
		if err != nil {
			t.Fatal(err)
		}
		c.Quiesce()
		return vals, c.Metrics().Snapshot()
	}
	offVals, off := run(SpeculationConfig{})
	onVals, on := run(SpeculationConfig{Enabled: true})
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
	c := testCluster(t, Config{
		Machines: 3, SerializeTasks: true,
		Speculation: SpeculationConfig{Enabled: true, MinDuration: time.Millisecond},
	})
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

// TestParseSpeculation covers the -speculation CLI spec forms and error
// cases.
func TestParseSpeculation(t *testing.T) {
	s, err := ParseSpeculation("on")
	if err != nil || !s.Enabled {
		t.Fatalf("ParseSpeculation(on) = %+v, %v", s, err)
	}
	s, err = ParseSpeculation("quantile=0.5,multiplier=2,min=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := SpeculationConfig{Enabled: true, Quantile: 0.5, Multiplier: 2, MinDuration: 5 * time.Millisecond}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	for _, bad := range []string{"", "quantile=2", "multiplier=0.5", "min=-1ms", "frobnicate=1", "quantile"} {
		if _, err := ParseSpeculation(bad); err == nil {
			t.Errorf("ParseSpeculation(%q) accepted garbage", bad)
		}
	}
	// Defaults fill unset knobs.
	d := SpeculationConfig{Enabled: true}.withDefaults()
	if d.Quantile != 0.75 || d.Multiplier != 1.5 || d.MinDuration != 10*time.Millisecond {
		t.Fatalf("withDefaults = %+v", d)
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
