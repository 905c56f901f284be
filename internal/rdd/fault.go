package rdd

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// FaultPlan is a seeded chaos schedule for the simulated cluster: random task
// failures, a machine kill at a chosen stage, and straggler delays. Every
// decision is a pure hash of (Seed, stage name, partition, attempt), so a plan
// injects the same faults on every run regardless of goroutine scheduling —
// the property the chaos tests rely on to compare a faulted solve against a
// failure-free one bit-for-bit.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// TaskFailureProb is the probability that a task's first attempt fails
	// with a retryable error (retries are never re-failed, so the retry
	// budget cannot be exhausted by the plan alone).
	TaskFailureProb float64
	// MaxTaskFailures caps the number of injected task failures; 0 means
	// unlimited. The cap is approximate under concurrency: which tasks land
	// within it depends on scheduling order, but results never do.
	MaxTaskFailures int
	// KillMachine is the machine to kill when stage KillAtStage begins
	// (reduced modulo the machine count).
	KillMachine int
	// KillAtStage is the 0-based global stage index at whose start the kill
	// fires. The kill is armed when KillSet is true or, for hand-built plans
	// that leave KillSet unset, when KillAtStage > 0.
	KillAtStage int
	// KillSet arms the machine kill explicitly, distinguishing "kill at
	// stage 0" from the zero value's "no kill". ParseFaultPlan sets it for
	// every kill=M@S field, including S=0.
	KillSet bool
	// StragglerProb delays a matching task attempt by StragglerDelay,
	// modeling slow executors.
	StragglerProb  float64
	StragglerDelay time.Duration
}

// ParseFaultPlan builds a FaultPlan from a compact comma-separated spec, the
// format the -fault-plan CLI flag takes:
//
//	seed=7,failprob=0.02,maxfail=10,kill=1@5,stragglerprob=0.05,stragglerdelay=5ms
//
// where kill=M@S kills machine M at the start of stage S. Unknown keys are an
// error; every key is optional.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	f := &FaultPlan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("rdd: fault plan field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			f.Seed, err = strconv.ParseUint(val, 10, 64)
		case "failprob":
			f.TaskFailureProb, err = strconv.ParseFloat(val, 64)
		case "maxfail":
			f.MaxTaskFailures, err = strconv.Atoi(val)
		case "kill":
			m, s, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("rdd: fault plan kill=%q is not machine@stage", val)
			}
			if f.KillMachine, err = strconv.Atoi(m); err == nil {
				f.KillAtStage, err = strconv.Atoi(s)
				f.KillSet = err == nil
			}
		case "stragglerprob":
			f.StragglerProb, err = strconv.ParseFloat(val, 64)
		case "stragglerdelay":
			f.StragglerDelay, err = time.ParseDuration(val)
		default:
			return nil, fmt.Errorf("rdd: unknown fault plan key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("rdd: fault plan field %q: %w", field, err)
		}
	}
	return f, nil
}

// Fault-decision salts keep the failure and straggler hash streams
// independent.
const (
	saltFail     = 0x6661696c // "fail"
	saltStraggle = 0x736c6f77 // "slow"
)

// faultHash maps (seed, stage, partition, attempt, salt) to a uniform [0,1)
// value: FNV over the stage name mixed with a splitmix64 finalizer. Being
// stateless is the point — identical inputs decide identically on every run.
func faultHash(seed uint64, stage string, part, attempt int, salt uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stage); i++ {
		h ^= uint64(stage[i])
		h *= 1099511628211
	}
	h ^= seed + salt + uint64(part)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// planShouldFail decides whether the fault plan fails this attempt. Only first
// attempts are failed, so a planned failure always leaves the retry budget
// room to succeed.
func (c *Cluster) planShouldFail(stage string, part, attempt int) bool {
	f := c.cfg.Fault
	if f == nil || f.TaskFailureProb <= 0 || attempt != 0 {
		return false
	}
	if faultHash(f.Seed, stage, part, attempt, saltFail) >= f.TaskFailureProb {
		return false
	}
	if f.MaxTaskFailures > 0 && c.planFailures.Add(1) > int64(f.MaxTaskFailures) {
		return false
	}
	return true
}

// planStraggle sleeps inside the timed task body when the plan marks this
// attempt a straggler, so the delay shows up in task durations and skew.
// Speculative backups are exempt: they model re-placement on a fast
// executor, the mitigation the stragglers exist to exercise.
func (c *Cluster) planStraggle(stage string, part, attempt int) {
	f := c.cfg.Fault
	if f == nil || f.StragglerProb <= 0 || f.StragglerDelay <= 0 || attempt >= speculativeAttempt {
		return
	}
	if faultHash(f.Seed, stage, part, attempt, saltStraggle) < f.StragglerProb {
		time.Sleep(f.StragglerDelay)
	}
}

// killArmed reports whether the plan schedules a machine kill at all:
// explicitly via KillSet, or implicitly by a positive KillAtStage for plans
// built as struct literals without the sentinel.
func (f *FaultPlan) killArmed() bool { return f.KillSet || f.KillAtStage > 0 }

// maybePlanKill fires the plan's machine kill when stage stageIdx begins.
func (c *Cluster) maybePlanKill(stageIdx int64) {
	f := c.cfg.Fault
	if f == nil || !f.killArmed() || stageIdx != int64(f.KillAtStage) {
		return
	}
	m := f.KillMachine % c.cfg.Machines
	if m < 0 {
		m += c.cfg.Machines
	}
	c.killMachine(m, fmt.Sprintf("fault plan: kill machine %d at stage %d", m, f.KillAtStage))
}

// Recovery event kinds recorded by the fault-tolerance machinery.
const (
	RecoveryMachineKill      = "machine-kill"
	RecoveryTaskRetry        = "task-retry"
	RecoveryCacheEvict       = "cache-evict"
	RecoveryShuffleEvict     = "shuffle-evict"
	RecoveryShuffleRecompute = "shuffle-recompute"
	// Speculative-execution outcomes: a backup attempt launched against a
	// suspected straggler, and each side's result of the commit race.
	RecoverySpeculativeLaunch = "speculative-launch"
	RecoverySpeculativeWin    = "speculative-win"
	RecoverySpeculativeLoss   = "speculative-loss"
)

// RecoveryEvent records one fault-tolerance action: a machine kill, a task
// attempt scheduled for retry, storage evicted from a dead machine, or a lost
// shuffle partition recomputed from lineage. The log is the auditable account
// of what failure recovery cost a run; Summary renders it and WriteChromeTrace
// exports each event as an instant on the driver timeline.
type RecoveryEvent struct {
	Kind      string
	Stage     string // stage, RDD or shuffle name the event concerns ("" if none)
	Partition int    // partition involved, -1 when the event spans several
	Machine   int    // machine involved, -1 when none
	Attempt   int    // failing attempt for task-retry events
	Cause     string
	Cost      time.Duration // work lost or spent recovering (0 if not timed)
	At        time.Duration // offset from cluster creation
}

// machineEvictor is implemented by storage holders (cached RDDs, shuffle
// exchanges) that must react to a machine dying.
type machineEvictor interface {
	evictMachine(m int)
}

// registerEvictor adds e to the set notified by KillMachine and returns a
// handle for unregisterEvictor.
func (c *Cluster) registerEvictor(e machineEvictor) int64 {
	id := c.newID()
	c.mu.Lock()
	if c.evictors == nil {
		c.evictors = map[int64]machineEvictor{}
	}
	c.evictors[id] = e
	c.mu.Unlock()
	return id
}

func (c *Cluster) unregisterEvictor(id int64) {
	c.mu.Lock()
	delete(c.evictors, id)
	c.mu.Unlock()
}

// KillMachine simulates losing machine m: every cached partition and
// in-memory shuffle output it held is evicted (ModeMapReduce spill
// files model replicated HDFS storage and survive), its memory charge is
// zeroed, and the scheduler stops placing tasks on it. Lost data is
// recomputed from lineage the next time a stage needs it, mirroring Spark's
// executor-loss recovery. Tasks already running on m are discarded when they
// finish and retried on a survivor.
//
// KillMachine is a driver-side API: calling it from inside a task closure of a
// cached RDD that is concurrently caching may block until that task finishes.
// Killing is idempotent; killing every machine makes subsequent stages fail
// fast with a "no healthy machine" error.
func (c *Cluster) KillMachine(m int) {
	c.killMachine(m, "KillMachine")
}

func (c *Cluster) killMachine(m int, cause string) {
	if m < 0 || m >= c.cfg.Machines {
		panic(fmt.Sprintf("rdd: KillMachine(%d) with %d machines", m, c.cfg.Machines))
	}
	if c.machines[m].dead.Swap(true) {
		return
	}
	c.evictDeadMachine(m, cause)
}

// evictDeadMachine runs the kill's consequences once the dead flag is set:
// under a remote Transport the worker process itself is killed first (so no
// in-flight fetch can still succeed against a machine the engine considers
// dead), then every registered storage holder evicts what the machine held.
// Called synchronously by killMachine and on its own goroutine by
// machineLost.
func (c *Cluster) evictDeadMachine(m int, cause string) {
	c.recordRecovery(RecoveryEvent{
		Kind: RecoveryMachineKill, Machine: m, Partition: -1, Cause: cause,
	})
	if rt := c.remote(); rt != nil {
		if err := rt.Kill(m); err != nil {
			c.recordRecovery(RecoveryEvent{
				Kind: RecoveryMachineKill, Machine: m, Partition: -1,
				Cause: fmt.Sprintf("killing worker process: %v", err),
			})
		}
	}
	c.mu.Lock()
	evictors := make([]machineEvictor, 0, len(c.evictors))
	for _, e := range c.evictors {
		evictors = append(evictors, e)
	}
	c.mu.Unlock()
	for _, e := range evictors {
		e.evictMachine(m)
	}
	// Whatever charge remains (transients of in-flight tasks, unregistered
	// holders) died with the machine.
	mm := c.machines[m]
	mm.mu.Lock()
	mm.used = 0
	mm.mu.Unlock()
}

// machineDead reports whether machine m has been killed.
func (c *Cluster) machineDead(m int) bool { return c.machines[m].dead.Load() }

// HealthyMachines returns how many machines are still alive.
func (c *Cluster) HealthyMachines() int {
	n := 0
	for m := 0; m < c.cfg.Machines; m++ {
		if !c.machineDead(m) {
			n++
		}
	}
	return n
}

// placeTask picks the machine for attempt number attempt of partition p:
// the preferred location (p+attempt) mod M, rotated past dead machines, and
// past the machine the previous attempt just failed on whenever another
// healthy machine exists (with a single machine left, retrying locally beats
// not retrying). It fails fast when no healthy machine remains.
func (c *Cluster) placeTask(p, attempt, lastFailed int) (int, error) {
	mc := c.cfg.Machines
	start := (p + attempt) % mc
	fallback := -1
	for off := 0; off < mc; off++ {
		m := (start + off) % mc
		if c.machineDead(m) {
			continue
		}
		if m == lastFailed {
			if fallback < 0 {
				fallback = m
			}
			continue
		}
		return m, nil
	}
	if fallback >= 0 {
		return fallback, nil
	}
	return -1, fmt.Errorf("rdd: no healthy machine remains to place task %d (all %d machines dead)", p, mc)
}

// recordRecovery appends ev to the recovery log, stamping At if unset.
func (c *Cluster) recordRecovery(ev RecoveryEvent) {
	if ev.At == 0 {
		ev.At = time.Since(c.start)
	}
	c.simMu.Lock()
	c.recoveries = append(c.recoveries, ev)
	c.simMu.Unlock()
}

// Recoveries returns a copy of the recovery-event log, in order.
func (c *Cluster) Recoveries() []RecoveryEvent {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return append([]RecoveryEvent(nil), c.recoveries...)
}
