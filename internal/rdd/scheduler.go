package rdd

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// TaskCtx is handed to every task; it identifies the machine the task runs on
// and lets the task declare transient memory it would allocate on a real
// cluster (charged for the task's duration). It also buffers the task's own
// byte traffic: counters are committed to the cluster Metrics only if the
// attempt succeeds (failed attempts land in BytesWasted instead), which is
// what makes the engine's accounting exactly-once under retry.
type TaskCtx struct {
	Machine    int
	c          *Cluster
	stage      string // stage name, part of the arena pool key
	part       int    // partition index, part of the arena pool key
	arena      *Arena // lazily checked out; returned to the pool at attempt end
	charged    int64
	shuffled   int64
	recomputed int64
	spillRead  int64
	spillWrite int64
	// recomputeDepth > 0 while the task is re-running lost lineage (see
	// exchange.recompute): CountShuffled calls inside the window are routed
	// to the recomputed buffer so recovery traffic never re-enters the
	// Lemma 3 BytesShuffled totals.
	recomputeDepth int
	onSuccess      []func()
}

// ChargeTransient reserves task-scoped memory on the task's machine. It is
// released automatically when the task finishes.
func (tc *TaskCtx) ChargeTransient(bytes int64) error {
	if err := tc.c.charge(tc.Machine, bytes); err != nil {
		return err
	}
	tc.charged += bytes
	return nil
}

// CountShuffled records bytes of shuffle traffic produced by this task,
// feeding the cluster-wide Metrics counter (on attempt success) and the
// per-task/per-stage rollups. Algorithm code that models traffic the engine
// does not serialize itself (e.g. factor rows shipped to a block) reports it
// here.
func (tc *TaskCtx) CountShuffled(bytes int64) {
	if tc.recomputeDepth > 0 {
		tc.recomputed += bytes
		return
	}
	tc.shuffled += bytes
}

// beginRecompute / endRecompute bracket a lineage-recompute window (nesting
// allowed: recomputing one shuffle's map output can fault in an upstream
// shuffle's). TaskCtx is goroutine-local, so a plain counter suffices.
func (tc *TaskCtx) beginRecompute() { tc.recomputeDepth++ }
func (tc *TaskCtx) endRecompute()   { tc.recomputeDepth-- }

// countSpillWrite / countSpillRead attribute disk traffic to the task.
func (tc *TaskCtx) countSpillWrite(bytes int64) {
	tc.spillWrite += bytes
}

func (tc *TaskCtx) countSpillRead(bytes int64) {
	tc.spillRead += bytes
}

// spilled is the attempt's total disk traffic.
func (tc *TaskCtx) spilled() int64 { return tc.spillRead + tc.spillWrite }

// OnSuccess registers f to run exactly once if (and only if) this task
// attempt completes successfully — the hook for side effects that must not
// double-apply when an attempt fails and is retried from lineage, or when a
// speculative duplicate runs the same closure: Collect, Reduce and the shuffle
// publish step install their results through it.
func (tc *TaskCtx) OnSuccess(f func()) {
	tc.onSuccess = append(tc.onSuccess, f)
}

// commit folds the attempt's buffered counters into the cluster metrics and
// fires the deferred success hooks. Called by runStage on success only.
func (tc *TaskCtx) commit() {
	m := &tc.c.metrics
	if tc.shuffled > 0 {
		m.BytesShuffled.Add(tc.shuffled)
	}
	if tc.recomputed > 0 {
		m.BytesRecomputed.Add(tc.recomputed)
	}
	if tc.spillRead > 0 {
		m.DiskBytesRead.Add(tc.spillRead)
	}
	if tc.spillWrite > 0 {
		m.DiskBytesWrite.Add(tc.spillWrite)
	}
	for _, f := range tc.onSuccess {
		f()
	}
	tc.onSuccess = nil
}

// Arena returns the attempt's slab arena, checking one out of the cluster
// pool (keyed by machine, stage, and partition) and resetting it on first
// use. Lineage recomputes that re-enter an upstream closure inside the same
// attempt share the attempt's arena without an intervening reset, so the
// downstream closure's live slabs are never clobbered; the arena is checked
// back in when the attempt finishes. See Arena for the lifetime contract.
func (tc *TaskCtx) Arena() *Arena {
	if tc.arena == nil {
		tc.arena = tc.c.arenas.checkout(arenaKey{tc.Machine, tc.stage, tc.part})
		tc.arena.Reset()
	}
	return tc.arena
}

// defaultMaxTaskRetries is the retry budget when Config.MaxTaskRetries is 0.
const defaultMaxTaskRetries = 2

// maxRetries resolves the configured per-task retry budget.
func (c *Cluster) maxRetries() int {
	switch {
	case c.cfg.MaxTaskRetries > 0:
		return c.cfg.MaxTaskRetries
	case c.cfg.MaxTaskRetries < 0:
		return 0
	default:
		return defaultMaxTaskRetries
	}
}

// stageState carries one executing stage's shared scheduler state: the
// rollups folded into its StageRecord, the resolution WaitGroup (one Done per
// partition, fired by the commit-race winner or a fatal failure), and — once
// the stage closed its record — the log index late-finishing speculative
// losers fold their waste into.
type stageState struct {
	c     *Cluster
	name  string
	tag   string
	parts int
	start time.Time
	wg    sync.WaitGroup // counts unresolved partitions
	done  chan struct{}  // closed after wg.Wait; stops the speculation monitor

	errMu    sync.Mutex
	firstErr error

	mu            sync.Mutex
	closed        bool // StageRecord appended; late attempts go via logIdx
	logIdx        int
	busy          []time.Duration
	durs          []time.Duration
	winDurs       []time.Duration // committed-attempt durations (speculation baseline)
	shuffled      int64
	spilled       int64
	recomputed    int64
	wasted        int64
	transientPeak int64
	retries       int
	specLaunches  int
	taskRecs      []TaskRecord
	recEvents     []RecoveryEvent
}

func (st *stageState) setErr(err error) {
	st.errMu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.errMu.Unlock()
}

func (st *stageState) err() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.firstErr
}

func (st *stageState) aborted() bool { return st.err() != nil }

// resolve marks the partition settled (winner committed, or its primary chain
// failed fatally) and releases the stage's wait on it. Idempotent: winner,
// late-failing primary and abort paths may all reach it.
func (st *stageState) resolve(ps *partState) {
	ps.mu.Lock()
	first := !ps.resolved
	ps.resolved = true
	ps.mu.Unlock()
	if first {
		st.wg.Done()
	}
}

func (st *stageState) fail(ps *partState, err error) {
	st.setErr(err)
	st.resolve(ps)
}

// partState is the per-partition commit race: exactly one attempt flips
// committed and gets to run its TaskCtx.commit. The body fields let the
// speculation monitor see how long the primary attempt has been running and
// where, without touching the attempt goroutine.
type partState struct {
	mu           sync.Mutex
	committed    bool
	resolved     bool
	specLaunched bool
	bodyRunning  bool
	bodyStart    time.Time
	bodyMachine  int
}

func (ps *partState) isCommitted() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.committed
}

func (ps *partState) bodyStarted(m int, at time.Time) {
	ps.mu.Lock()
	ps.bodyRunning = true
	ps.bodyStart = at
	ps.bodyMachine = m
	ps.mu.Unlock()
}

func (ps *partState) bodyEnded() {
	ps.mu.Lock()
	ps.bodyRunning = false
	ps.mu.Unlock()
}

// runStage executes parts tasks across the machines (partition p prefers
// machine p mod M, like Spark preferred locations) and waits for all of them.
// Tasks failing with errRetryable — injected faults, or attempts whose
// machine was killed while they ran — are re-placed on another healthy
// machine (never the machine that just failed when an alternative exists)
// and recomputed from lineage, up to the configured retry budget; other
// errors abort the stage. With speculation enabled a monitor goroutine
// additionally launches one backup attempt per suspected straggler; the first
// finisher wins the partition.
//
// Exactly-once contract: each partition has a single commit flag, so exactly
// one attempt's byte counters and deferred OnSuccess hooks are committed;
// every other attempt's traffic — failed, or a healthy duplicate that lost
// the race — is reattributed to BytesWasted and its hooks are dropped.
func (c *Cluster) runStage(name string, parts int, task func(tc *TaskCtx, p int) error) error {
	stageIdx := c.metrics.Stages.Add(1) - 1
	c.maybePlanKill(stageIdx)
	c.simMu.Lock()
	tag := c.stageTag
	c.simMu.Unlock()

	st := &stageState{
		c:     c,
		name:  name,
		tag:   tag,
		parts: parts,
		start: time.Now(),
		busy:  make([]time.Duration, c.cfg.Machines),
		durs:  make([]time.Duration, 0, parts),
	}
	states := make([]*partState, parts)
	for p := range states {
		states[p] = &partState{}
	}
	st.wg.Add(parts)

	if c.speculating() && parts > 1 {
		st.done = make(chan struct{})
		// The monitor joins the attempts group so Quiesce waits for it: it
		// exits on st.done, which closes right after st.wg.Wait below, so it
		// never outlives the stage — but without the Add a Close racing the
		// tail of a stage could tear down machines under a live monitor.
		c.attempts.Add(1)
		go func() {
			defer c.attempts.Done()
			c.speculationMonitor(st, states, task)
		}()
	}

	for p := 0; p < parts; p++ {
		c.attempts.Add(1)
		go func(p int) {
			defer c.attempts.Done()
			c.runPrimary(st, states[p], task, p)
		}(p)
	}
	st.wg.Wait()
	if st.done != nil {
		close(st.done)
	}

	st.mu.Lock()
	// Critical-path accounting: the stage is as slow as its busiest machine.
	var critical time.Duration
	for _, b := range st.busy {
		perCore := b / time.Duration(c.cfg.CoresPerMachine)
		if perCore > critical {
			critical = perCore
		}
	}
	var maxTask, medianTask time.Duration
	if len(st.durs) > 0 {
		slices.Sort(st.durs) // durs is dead after the rollup; sort in place
		maxTask = st.durs[len(st.durs)-1]
		medianTask = st.durs[len(st.durs)/2]
	}
	rec := StageRecord{
		Name:             name,
		Tag:              tag,
		Tasks:            parts,
		Start:            st.start.Sub(c.start),
		Wall:             time.Since(st.start),
		Critical:         critical,
		Retries:          st.retries,
		BytesShuffled:    st.shuffled,
		BytesSpilled:     st.spilled,
		BytesWasted:      st.wasted,
		BytesRecomputed:  st.recomputed,
		SpeculativeTasks: st.specLaunches,
		MaxTask:          maxTask,
		MedianTask:       medianTask,
		TransientPeak:    st.transientPeak,
	}
	taskRecs, recEvents := st.taskRecs, st.recEvents
	st.taskRecs, st.recEvents = nil, nil
	c.simMu.Lock()
	c.simTime += critical
	st.logIdx = len(c.stageLog)
	c.stageLog = append(c.stageLog, rec)
	c.taskLog = append(c.taskLog, taskRecs...)
	c.recoveries = append(c.recoveries, recEvents...)
	c.simMu.Unlock()
	st.closed = true
	st.mu.Unlock()
	return st.err()
}

// runPrimary drives a partition's primary attempt chain: place, run, retry on
// retryable failure, resolve the partition on success or fatal error. If a
// speculative backup commits the partition first, the chain stands down.
func (c *Cluster) runPrimary(st *stageState, ps *partState, task func(tc *TaskCtx, p int) error, p int) {
	lastFailed := -1
	for attempt := 0; ; attempt++ {
		if st.aborted() || ps.isCommitted() {
			st.resolve(ps)
			return
		}
		m, perr := c.placeTask(p, attempt, lastFailed)
		if perr != nil {
			st.fail(ps, perr)
			return
		}
		err, willRetry := c.runAttempt(st, ps, task, p, attempt, m, false)
		if err == nil {
			return // the attempt resolved the partition (won, or lost silently)
		}
		if willRetry {
			c.metrics.TaskRetries.Add(1)
			lastFailed = m
			continue
		}
		if ps.isCommitted() {
			// A backup won while this chain was failing out; the partition is
			// already settled, so the failure is not fatal.
			st.resolve(ps)
			return
		}
		st.fail(ps, err)
		return
	}
}

// speculativeAttempt is the Attempt number recorded for backup attempts. It
// is far above any retry budget, so the deterministic fault plan (which only
// fails or straggles attempt 0) never injects faults into backups.
const speculativeAttempt = 1000

// errObsolete marks an attempt skipped without running because the
// partition's race was already decided when it reached a core.
var errObsolete = errors.New("rdd: attempt obsolete; partition already committed")

// runAttempt executes one task attempt — primary or speculative backup — on
// machine m: runs the body, enters the commit race on success, folds the
// attempt's byte counters into the committed or wasted rollups accordingly,
// and resolves the partition if it settled it. Returns the attempt's error
// and whether the primary chain should retry it.
func (c *Cluster) runAttempt(st *stageState, ps *partState, task func(tc *TaskCtx, p int) error, p, attempt, m int, speculative bool) (error, bool) {
	mm := c.machines[m]
	enqueued := time.Now()
	mm.sem <- struct{}{}
	if ps.isCommitted() {
		// The race was decided while this attempt waited for a core: don't
		// burn the core on a doomed body.
		<-mm.sem
		if !speculative {
			st.resolve(ps)
		}
		return errObsolete, false
	}
	if c.cfg.SerializeTasks {
		c.serialMu.Lock()
	}
	tc := &TaskCtx{Machine: m, c: c, stage: st.name, part: p}
	taskStart := time.Now()
	if !speculative {
		ps.bodyStarted(m, taskStart)
	}
	var err error
	switch {
	case c.shouldFail(st.name):
		err = fmt.Errorf("rdd: injected failure in stage %q task %d on machine %d: %w", st.name, p, m, errRetryable)
	case c.planShouldFail(st.name, p, attempt):
		err = fmt.Errorf("rdd: fault-plan failure in stage %q task %d on machine %d: %w", st.name, p, m, errRetryable)
	default:
		//distenc:lockheld-ok -- SerializeTasks runs whole task bodies (straggle injection included) under serialMu by design; the lock IS the serializer
		c.planStraggle(st.name, p, attempt)
		err = task(tc, p)
		if err == nil && c.machineDead(m) {
			// The machine died under the running task: its result
			// is gone with the machine, so discard and retry.
			err = fmt.Errorf("rdd: machine %d died while running stage %q task %d: %w", m, st.name, p, errRetryable)
		}
	}
	dur := time.Since(taskStart)
	if !speculative {
		ps.bodyEnded()
	}
	if c.cfg.SerializeTasks {
		c.serialMu.Unlock()
	}

	// The commit race: exactly one successful attempt per partition wins.
	won := false
	if err == nil {
		ps.mu.Lock()
		if !ps.committed {
			ps.committed = true
			won = true
		}
		ps.mu.Unlock()
	}
	raceDecided := won || ps.isCommitted()
	willRetry := err != nil && errors.Is(err, errRetryable) &&
		!speculative && attempt < c.maxRetries() && !raceDecided
	if won {
		// Hooks must fire before the partition resolves: the driver reads
		// hook-installed results as soon as the stage returns.
		tc.commit()
	}
	st.recordAttempt(tc, m, p, attempt, dur, taskStart, enqueued, err, won, willRetry, speculative)
	// The transient charge goes before the partition resolves: once the last
	// one has, the stage returns, and a machine still charged for a finished
	// task would refuse the next stage's first charge under a tight budget.
	if tc.charged > 0 {
		c.release(m, tc.charged)
	}
	if won {
		st.resolve(ps)
	}
	if tc.arena != nil {
		// Returned only after the commit fired: hook-installed results may be
		// arena-backed, and the driver consumes them before the next attempt
		// of this (machine, stage, partition) key resets the slabs.
		c.arenas.checkin(arenaKey{m, st.name, p}, tc.arena)
		tc.arena = nil
	}
	<-mm.sem
	c.metrics.TasksRun.Add(1)
	if err == nil && !won {
		// A healthy duplicate that lost: the winner already resolved the
		// partition; this attempt's work was wasted but nothing failed.
		st.resolve(ps)
	}
	return err, willRetry
}

// recordAttempt folds one finished attempt into the stage rollups (and the
// cluster waste counter for losers). If the stage already closed its record —
// a speculative race left this attempt running past stage resolution — the
// waste is folded into the published StageRecord instead, so per-stage
// rollups keep summing to the cluster totals. Speculative wins and losses are
// logged as recovery events here, where the race outcome is known.
func (st *stageState) recordAttempt(tc *TaskCtx, m, p, attempt int, dur time.Duration, taskStart, enqueued time.Time, err error, won, willRetry, speculative bool) {
	c := st.c
	waste := int64(0)
	if !won {
		waste = tc.shuffled + tc.recomputed + tc.spilled()
		if waste > 0 {
			c.metrics.BytesWasted.Add(waste)
		}
	}
	var rec *TaskRecord
	if c.cfg.TaskTrace {
		rec = &TaskRecord{
			Stage:         st.name,
			Tag:           st.tag,
			Partition:     p,
			Attempt:       attempt,
			Machine:       m,
			Start:         taskStart.Sub(c.start),
			Queue:         taskStart.Sub(enqueued),
			Run:           dur,
			TransientPeak: tc.charged,
			BytesShuffled: tc.shuffled + tc.recomputed,
			BytesSpilled:  tc.spilled(),
			Speculative:   speculative,
		}
		if err != nil {
			rec.Error = err.Error()
		}
	}
	var ev *RecoveryEvent
	switch {
	case willRetry:
		ev = &RecoveryEvent{Kind: RecoveryTaskRetry, Cause: err.Error()}
	case speculative && won:
		ev = &RecoveryEvent{
			Kind:  RecoverySpeculativeWin,
			Cause: "backup attempt finished first; primary attempt's work discarded",
		}
	case err == nil && !won,
		speculative && err != nil:
		cause := "duplicate attempt lost the commit race"
		if err != nil {
			cause = err.Error()
		}
		ev = &RecoveryEvent{Kind: RecoverySpeculativeLoss, Cause: cause}
	}
	if ev != nil {
		ev.Stage, ev.Partition, ev.Machine, ev.Attempt = st.name, p, m, attempt
		ev.Cost = dur
		ev.At = taskStart.Sub(c.start)
	}

	st.mu.Lock()
	if !st.closed {
		st.busy[m] += dur
		st.durs = append(st.durs, dur)
		if won {
			st.winDurs = append(st.winDurs, dur)
			st.shuffled += tc.shuffled
			st.recomputed += tc.recomputed
			st.spilled += tc.spilled()
		} else {
			st.wasted += waste
		}
		if tc.charged > st.transientPeak {
			st.transientPeak = tc.charged
		}
		if willRetry {
			st.retries++
		}
		if rec != nil {
			st.taskRecs = append(st.taskRecs, *rec)
		}
		if ev != nil {
			st.recEvents = append(st.recEvents, *ev)
		}
		st.mu.Unlock()
		return
	}
	idx := st.logIdx
	st.mu.Unlock()
	c.simMu.Lock()
	if waste > 0 {
		c.stageLog[idx].BytesWasted += waste
	}
	if rec != nil {
		c.taskLog = append(c.taskLog, *rec)
	}
	if ev != nil {
		c.recoveries = append(c.recoveries, *ev)
	}
	c.simMu.Unlock()
}
