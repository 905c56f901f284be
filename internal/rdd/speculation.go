package rdd

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Speculative execution (Config.Speculation) mirrors
// spark.speculation{.quantile,.multiplier}: each stage runs a monitor that
// compares running tasks against the stage's already-committed task
// durations. Once specQuantile of the stage's tasks have committed, a task
// whose body has been running longer than specMultiplier × the specQuantile
// duration (floored at specMinDuration, so short tasks are never speculated
// on timing noise) gets one backup attempt on a different healthy machine,
// and whichever attempt finishes first wins the partition's exactly-once
// commit.
const (
	specQuantile    = 0.75
	specMultiplier  = 1.5
	specMinDuration = 10 * time.Millisecond
)

// speculating reports whether stages should run the speculation monitor.
// SerializeTasks wins over Speculation: its whole point is uncontended
// single-core task durations, and a backup racing the task it duplicates
// would deadlock behind the straggler's serial lock anyway.
func (c *Cluster) speculating() bool {
	return c.cfg.Speculation && !c.cfg.SerializeTasks
}

// speculationMonitor watches a stage's running primary attempts and launches
// at most one backup per partition once the commit-race cutoff is known and
// exceeded. It exits when the stage resolves or aborts.
func (c *Cluster) speculationMonitor(st *stageState, states []*partState, task func(tc *TaskCtx, p int) error) {
	need := int(math.Ceil(specQuantile * float64(st.parts)))
	ticker := time.NewTicker(specMinDuration / 2)
	defer ticker.Stop()
	for {
		select {
		case <-st.done:
			return
		case <-ticker.C:
		}
		if st.aborted() {
			return
		}
		cutoff, ok := st.specCutoff(need)
		if !ok {
			continue
		}
		now := time.Now()
		for p, ps := range states {
			ps.mu.Lock()
			elapsed := now.Sub(ps.bodyStart)
			launch := !ps.resolved && !ps.committed && !ps.specLaunched &&
				ps.bodyRunning && elapsed >= cutoff
			primary := ps.bodyMachine
			if launch {
				// One shot per partition: machines never come back, so if no
				// distinct healthy machine exists now, none ever will.
				ps.specLaunched = true
			}
			ps.mu.Unlock()
			if !launch {
				continue
			}
			m, err := c.placeTask(p, 1, primary)
			if err != nil || m == primary {
				// No different healthy machine to run a backup on; a
				// duplicate behind the same straggler gains nothing.
				continue
			}
			st.addSpecLaunch(p, m, elapsed, cutoff)
			c.metrics.SpeculativeTasks.Add(1)
			st.running.Add(1)
			go func(p, m int, ps *partState) {
				defer st.running.Done()
				c.runAttempt(st, ps, task, p, speculativeAttempt, m, true)
			}(p, m, ps)
		}
	}
}

// specCutoff returns the current backup-launch threshold: specMultiplier ×
// the specQuantile duration of the stage's committed attempts, floored at
// specMinDuration. ok is false until need of the stage's tasks committed.
func (st *stageState) specCutoff(need int) (time.Duration, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.winDurs) < need {
		return 0, false
	}
	ds := slices.Clone(st.winDurs)
	slices.Sort(ds)
	q := ds[int(specQuantile*float64(len(ds)-1))]
	return max(time.Duration(specMultiplier*float64(q)), specMinDuration), true
}

// addSpecLaunch counts a backup launch in the stage rollup and logs the
// recovery event.
func (st *stageState) addSpecLaunch(p, m int, elapsed, cutoff time.Duration) {
	ev := RecoveryEvent{
		Kind:      RecoverySpeculativeLaunch,
		Stage:     st.name,
		Partition: p,
		Machine:   m,
		Attempt:   speculativeAttempt,
		Cause:     fmt.Sprintf("task running %v, over speculation cutoff %v; backup launched", elapsed, cutoff),
		At:        time.Since(st.c.start),
	}
	st.mu.Lock()
	st.specLaunches++
	st.recEvents = append(st.recEvents, ev)
	st.mu.Unlock()
}
