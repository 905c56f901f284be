package rdd

import (
	"sync/atomic"
	"testing"
	"time"

	"distenc/internal/leakcheck"
)

// slowEvictor records whether its eviction ran to completion, after a delay
// long enough that an unjoined eviction goroutine would still be mid-flight
// when Quiesce returns.
type slowEvictor struct {
	delay time.Duration
	done  atomic.Bool
}

func (e *slowEvictor) evictMachine(m int) {
	time.Sleep(e.delay)
	e.done.Store(true)
}

// TestMachineLostEvictionJoinsQuiesce pins the fix for the unowned eviction
// goroutine: machineLost spawns evictDeadMachine asynchronously (evicting
// synchronously inside a task could deadlock on partition locks), but that
// goroutine must join the evictions group — otherwise Quiesce, and therefore
// Close, returns while evictors are still republishing state, and shutdown
// tears the cluster out from under its own recovery.
func TestMachineLostEvictionJoinsQuiesce(t *testing.T) {
	c := testCluster(t, Config{Machines: 3})
	ev := &slowEvictor{delay: 150 * time.Millisecond}
	id := c.registerEvictor(ev)
	defer c.unregisterEvictor(id)

	c.machineLost(1, "test: simulated transport failure")
	c.Quiesce()
	if !ev.done.Load() {
		t.Fatal("Quiesce returned while machineLost's eviction goroutine was still running")
	}
	leakcheck.Check(t)
}

// TestSpeculationMonitorEndsWithItsStage pins the monitor's ownership: once
// a speculative stage has returned, no goroutine it started survives — not
// the monitor, not the straggler a backup out-raced, with no Quiesce or
// Close in between.
func TestSpeculationMonitorEndsWithItsStage(t *testing.T) {
	c := testCluster(t, Config{
		Machines: 4, CoresPerMachine: 2, Speculation: true,
		Fault: stragglerPlan(t, 8, 1, time.Minute, "collect:slow"),
	})
	r := MapPartitions(Parallelize(c, "nums", ints(16), 8), "slow",
		func(tc *TaskCtx, p int, in []int) ([]int, error) { return in, nil })
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if n := c.Metrics().SpeculativeTasks.Load(); n < 1 {
		t.Fatalf("SpeculativeTasks = %d: the case under test did not occur", n)
	}
	leakcheck.Check(t)
}
