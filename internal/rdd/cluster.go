// Package rdd is an in-process, Spark-like distributed dataflow engine: the
// substrate this reproduction runs DisTenC and its baselines on in place of a
// real Spark cluster.
//
// The engine provides lazy, lineage-backed resilient distributed datasets
// with narrow transformations (Map, Filter, FlatMap, MapPartitions), wide
// shuffle transformations on key-value RDDs (ReduceByKey, AggregateByKey,
// GroupByKey, Join, CoGroup, PartitionBy), broadcast variables, explicit
// caching, and actions (Collect, Count, Reduce).
//
// What makes it a useful experimental substrate rather than a toy:
//
//   - Machines are simulated: partitions have stable placement on M logical
//     machines, each with a worker pool of CoresPerMachine goroutines, so
//     machine-scalability experiments measure real parallel speedup.
//   - Every machine has a memory budget. Cached partitions and declared
//     transient allocations are charged against it; exceeding the budget
//     fails the job with ErrOutOfMemory — reproducing the O.O.M. frontier of
//     the paper's Figure 3.
//   - Shuffled and broadcast data is really serialized (encoding/gob), so the
//     engine reports honest byte counts for the paper's Lemma 3 accounting.
//   - ModeMapReduce spills every shuffle through the filesystem and disables
//     in-memory caching (forcing lineage recomputation each stage), which is
//     exactly the Hadoop penalty the paper attributes SCouT's and
//     FlexiFact's slowness to.
//   - Tasks that fail with a retryable error (fault injection, used in
//     tests) are re-run on another machine from lineage, like Spark's task
//     retry.
package rdd

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the execution backend the engine models.
type Mode int

const (
	// ModeInMemory is Spark-like: shuffles stay in memory, caching works.
	ModeInMemory Mode = iota
	// ModeMapReduce is Hadoop-like: shuffles spill to disk and Cache is a
	// no-op, so every stage recomputes its lineage.
	ModeMapReduce
)

func (m Mode) String() string {
	switch m {
	case ModeInMemory:
		return "spark"
	case ModeMapReduce:
		return "mapreduce"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes the simulated cluster.
type Config struct {
	// Machines is the number of simulated machines (default 4).
	Machines int
	// CoresPerMachine is the worker-pool width per machine (default 2).
	CoresPerMachine int
	// MemoryPerMachine is the per-machine memory budget in bytes charged by
	// cached partitions, broadcasts and declared transient allocations.
	// Zero means unlimited.
	MemoryPerMachine int64
	// Mode selects Spark-like or MapReduce-like execution.
	Mode Mode
	// DiskDir is where ModeMapReduce spills shuffle data. Empty uses a
	// temporary directory owned by the cluster.
	DiskDir string
	// DiskLatencyPerMB adds modeled disk/HDFS latency per spilled megabyte
	// (both write and read) in ModeMapReduce. Zero adds none beyond the real
	// file I/O.
	DiskLatencyPerMB time.Duration
	// SerializeTasks runs at most one task at a time across the whole
	// cluster so per-task durations are true single-core costs. Combined
	// with SimulatedTime this yields honest machine-scalability curves on
	// hosts with fewer cores than simulated machines.
	SerializeTasks bool
	// TaskTrace records one TaskRecord per task attempt (see Cluster.Trace
	// and the Chrome-trace exporter). Off by default: the per-stage rollups
	// in StageLog are always collected, the per-task log only when asked,
	// so tracing never taxes benchmark runs that don't want it.
	TaskTrace bool
	// MaxTaskRetries is the per-task retry budget for retryable failures
	// (injected faults, machine loss). 0 means the default of 2; negative
	// disables retries.
	MaxTaskRetries int
	// RetryBackoff is the base delay before re-placing a failed attempt;
	// it doubles per attempt up to RetryBackoffMax (default 8x the base).
	// Zero disables backoff.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Fault, when set, injects the seeded chaos schedule (task failures,
	// a machine kill, stragglers) described by the plan. Nil runs clean.
	Fault *FaultPlan
	// Speculation enables Spark-style speculative execution: runStage
	// watches running tasks against the completed-task duration distribution
	// and launches one backup attempt on a different healthy machine for a
	// task running far beyond it; the first finisher wins the partition's
	// commit and the loser's traffic lands in BytesWasted. Ignored under
	// SerializeTasks, whose point is uncontended single-core task costs.
	Speculation SpeculationConfig
	// Transport, when set, moves committed block images (shuffle buckets,
	// broadcast replicas, checkpoint partitions) to real worker processes
	// instead of keeping them in the driver's memory — see the Transport
	// interface. Nil selects the built-in in-process backend. The transport
	// must front exactly Machines workers and is owned by the caller, who
	// closes it after the cluster.
	Transport Transport
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.CoresPerMachine <= 0 {
		c.CoresPerMachine = 2
	}
	return c
}

// ErrOutOfMemory is returned (wrapped) when a machine's memory budget is
// exceeded. Callers detect it with errors.Is.
var ErrOutOfMemory = errors.New("rdd: machine out of memory")

// errRetryable marks injected task failures that the scheduler should retry
// on another machine.
var errRetryable = errors.New("rdd: retryable task failure")

// Metrics aggregates engine counters for the experiment harness. The byte
// counters hold exactly-once totals: an attempt's traffic is committed only
// when the attempt succeeds, and traffic from attempts that failed (or whose
// machine died mid-run) is reattributed to BytesWasted instead, so Lemma 3
// accounting is not overstated under retry.
type Metrics struct {
	BytesShuffled  atomic.Int64
	BytesBroadcast atomic.Int64
	DiskBytesRead  atomic.Int64
	DiskBytesWrite atomic.Int64
	// BytesWasted counts shuffle+disk traffic produced by failed task
	// attempts — work that was paid for but discarded. Under speculative
	// execution it also absorbs the traffic of attempts that lost the
	// commit race to a faster duplicate.
	BytesWasted atomic.Int64
	// BytesRecomputed counts shuffle traffic re-generated while rebuilding a
	// dead machine's lost map outputs from lineage. It is kept out of
	// BytesShuffled so the Lemma 3 totals of a run that survived a kill stay
	// bit-equal to a failure-free run: the original bytes were already
	// counted when the first map attempt committed.
	BytesRecomputed atomic.Int64
	TasksRun        atomic.Int64
	TaskRetries     atomic.Int64
	// SpeculativeTasks counts backup attempts launched by speculative
	// execution (winners and losers alike).
	SpeculativeTasks atomic.Int64
	Stages           atomic.Int64
	// ShuffleLiveBytes is a gauge: committed map-output bytes of exchanges not
	// yet retired. A job that retires each iteration's shuffle reads zero
	// between iterations; a leak reads a running total.
	ShuffleLiveBytes atomic.Int64
	// BlocksRecycled and BlocksAllocated count shuffle block images drawn from
	// the retired-image pool versus freshly allocated.
	BlocksRecycled  atomic.Int64
	BlocksAllocated atomic.Int64
}

// Snapshot returns a plain-struct copy for reporting.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		BytesShuffled:    m.BytesShuffled.Load(),
		BytesBroadcast:   m.BytesBroadcast.Load(),
		DiskBytesRead:    m.DiskBytesRead.Load(),
		DiskBytesWrite:   m.DiskBytesWrite.Load(),
		BytesWasted:      m.BytesWasted.Load(),
		BytesRecomputed:  m.BytesRecomputed.Load(),
		TasksRun:         m.TasksRun.Load(),
		TaskRetries:      m.TaskRetries.Load(),
		SpeculativeTasks: m.SpeculativeTasks.Load(),
		Stages:           m.Stages.Load(),
	}
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	BytesShuffled    int64
	BytesBroadcast   int64
	DiskBytesRead    int64
	DiskBytesWrite   int64
	BytesWasted      int64
	BytesRecomputed  int64
	TasksRun         int64
	TaskRetries      int64
	SpeculativeTasks int64
	Stages           int64
}

// Sub returns m - o field-wise (for per-phase deltas).
func (m MetricsSnapshot) Sub(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		BytesShuffled:    m.BytesShuffled - o.BytesShuffled,
		BytesBroadcast:   m.BytesBroadcast - o.BytesBroadcast,
		DiskBytesRead:    m.DiskBytesRead - o.DiskBytesRead,
		DiskBytesWrite:   m.DiskBytesWrite - o.DiskBytesWrite,
		BytesWasted:      m.BytesWasted - o.BytesWasted,
		BytesRecomputed:  m.BytesRecomputed - o.BytesRecomputed,
		TasksRun:         m.TasksRun - o.TasksRun,
		TaskRetries:      m.TaskRetries - o.TaskRetries,
		SpeculativeTasks: m.SpeculativeTasks - o.SpeculativeTasks,
		Stages:           m.Stages - o.Stages,
	}
}

type machine struct {
	id   int
	sem  chan struct{} // CoresPerMachine slots
	dead atomic.Bool   // set by KillMachine; the scheduler skips dead machines
	mu   sync.Mutex
	used int64
	peak int64
}

// Cluster is the simulated cluster: the driver plus M machines.
type Cluster struct {
	cfg          Config
	machines     []*machine
	metrics      Metrics
	start        time.Time    // all trace timestamps are offsets from this
	planFailures atomic.Int64 // fault-plan task failures injected so far
	// attempts tracks every in-flight task attempt, including speculative
	// losers that outlive their stage; Quiesce waits for it.
	attempts sync.WaitGroup
	// arenas pools per-(machine, stage, partition) slab arenas across task
	// attempts so steady-state iterations reuse scratch memory (see Arena).
	arenas    arenaPool
	blockPool blockPool // retired shuffle block images awaiting the next encode

	mu         sync.Mutex
	nextID     int64
	tmpDir     string
	ownsTmp    bool
	closed     bool
	failOnce   map[string]int           // stage-name prefix -> remaining injected failures
	evictors   map[int64]machineEvictor // storage holders notified by KillMachine
	ckptFiles  map[int64][]string       // Checkpoint files to delete on Unpersist/Close
	ckptRemote map[int64]struct{}       // worker-held Checkpoints to Drop on Unpersist/Close

	serialMu    sync.Mutex // held per task when SerializeTasks is set
	simMu       sync.Mutex
	simTime     time.Duration
	stageTag    string
	stageLog    []StageRecord
	taskLog     []TaskRecord
	driverSpans []DriverSpan
	recoveries  []RecoveryEvent
	notes       []string
}

// StageRecord summarizes one executed stage for the StageLog: scheduling
// shape (tasks, wall, critical path), the byte traffic the stage generated,
// retry counts, and the max-vs-median task-time skew that reveals stragglers
// and load imbalance.
type StageRecord struct {
	Name     string
	Tag      string // iteration/phase label set via SetStageTag
	Tasks    int
	Start    time.Duration // offset from cluster creation
	Wall     time.Duration
	Critical time.Duration // per-machine busy-time critical path
	Retries  int           // task attempts re-run from lineage in this stage
	// BytesShuffled counts shuffle traffic generated by this stage's tasks
	// (map-side serialized blocks plus declared row shipments).
	BytesShuffled int64
	// BytesSpilled counts disk bytes read+written by this stage's tasks
	// (ModeMapReduce shuffle spills, checkpoints).
	BytesSpilled int64
	// BytesWasted counts shuffle+disk bytes produced by this stage's failed
	// task attempts — and, under speculation, by attempts that lost the
	// commit race — then discarded (exactly-once accounting keeps them out
	// of BytesShuffled/BytesSpilled).
	BytesWasted int64
	// BytesRecomputed counts shuffle bytes re-encoded by this stage's tasks
	// while rebuilding lost map outputs from lineage (recovery traffic, not
	// new shuffle volume — see Metrics.BytesRecomputed).
	BytesRecomputed int64
	// SpeculativeTasks counts backup attempts this stage launched for
	// suspected stragglers.
	SpeculativeTasks int
	// MaxTask and MedianTask summarize the task run-time distribution;
	// their ratio (Skew) is the straggler indicator.
	MaxTask    time.Duration
	MedianTask time.Duration
	// TransientPeak is the largest task-scoped memory any single task of the
	// stage declared via ChargeTransient.
	TransientPeak int64
}

// Skew returns MaxTask/MedianTask (1 when the stage ran a single task or the
// median rounds to zero) — the load-balance figure the greedy partitioner of
// Algorithm 2 exists to keep near 1.
func (s StageRecord) Skew() float64 {
	if s.MedianTask <= 0 {
		return 1
	}
	return float64(s.MaxTask) / float64(s.MedianTask)
}

// TaskRecord describes one task attempt, recorded when Config.TaskTrace is
// set. Queue is the wait for a core slot before the task body ran; Run is the
// body itself; both locate the attempt on the cluster timeline via Start
// (offset from cluster creation, when the body began).
type TaskRecord struct {
	Stage         string
	Tag           string // stage tag at the time the stage ran
	Partition     int
	Attempt       int // 0 on first execution, >0 for lineage re-runs
	Machine       int
	Start         time.Duration
	Queue         time.Duration
	Run           time.Duration
	TransientPeak int64  // memory declared via ChargeTransient
	BytesShuffled int64  // shuffle bytes this attempt produced
	BytesSpilled  int64  // disk bytes this attempt read+wrote
	Speculative   bool   // true for backup attempts launched by speculation
	Error         string // "" on success; the attempt's error otherwise
}

// DriverSpan is a named span of driver-side work (dense algebra, result
// assembly) recorded by the algorithm via RecordDriverSpan so single-threaded
// driver time shows up next to the cluster stages in traces.
type DriverSpan struct {
	Name  string
	Tag   string
	Start time.Duration // offset from cluster creation
	Dur   time.Duration
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport != nil && cfg.Transport.Workers() != cfg.Machines {
		return nil, fmt.Errorf("rdd: transport fronts %d workers but the cluster has %d machines",
			cfg.Transport.Workers(), cfg.Machines)
	}
	c := &Cluster{cfg: cfg, failOnce: map[string]int{}, start: time.Now(), blockPool: blockPool{free: map[int][][]byte{}}}
	for i := 0; i < cfg.Machines; i++ {
		c.machines = append(c.machines, &machine{
			id:  i,
			sem: make(chan struct{}, cfg.CoresPerMachine),
		})
	}
	if cfg.Mode == ModeMapReduce {
		dir := cfg.DiskDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "distenc-shuffle-")
			if err != nil {
				return nil, fmt.Errorf("rdd: creating shuffle dir: %w", err)
			}
			c.ownsTmp = true
		}
		c.tmpDir = dir
	}
	return c, nil
}

// MustNewCluster is NewCluster panicking on error, for tests and examples.
func MustNewCluster(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Quiesce blocks until every task attempt has finished running, including
// speculative losers that outlived their stage (a stage resolves as soon as
// each partition has a winner; the losing duplicates keep running and fold
// their traffic into BytesWasted when they drain). Call it before comparing
// metric totals; Close quiesces automatically.
func (c *Cluster) Quiesce() { c.attempts.Wait() }

// Close releases the cluster's on-disk shuffle space, including any
// Checkpoint files still alive in a caller-owned DiskDir, and retires every
// shuffle exchange still alive (spill files removed, worker-held blocks
// dropped). It first waits for any straggling speculative attempts so nothing
// races the teardown.
func (c *Cluster) Close() error {
	c.Quiesce()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	evictors := c.evictors
	c.evictors = nil
	remote := make([]int64, 0, len(c.ckptRemote))
	for id := range c.ckptRemote {
		remote = append(remote, id)
	}
	c.ckptRemote = nil
	ownsTmp, tmpDir := c.ownsTmp, c.tmpDir
	files := c.ckptFiles
	c.ckptFiles = nil
	c.mu.Unlock()
	for _, e := range evictors {
		if ex, ok := e.(interface{ retire() }); ok {
			ex.retire()
		}
	}
	for _, id := range remote {
		c.dropRemoteBlocks(id)
	}
	if ownsTmp && tmpDir != "" {
		return os.RemoveAll(tmpDir)
	}
	for _, paths := range files {
		removeFiles(paths)
	}
	return nil
}

// Config returns the (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Machines returns the simulated machine count.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// Metrics exposes the engine counters.
func (c *Cluster) Metrics() *Metrics { return &c.metrics }

// PeakMemory returns the maximum bytes ever charged to machine m.
func (c *Cluster) PeakMemory(m int) int64 {
	mm := c.machines[m]
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.peak
}

// MaxPeakMemory returns the largest per-machine peak.
func (c *Cluster) MaxPeakMemory() int64 {
	var mx int64
	for i := range c.machines {
		if p := c.PeakMemory(i); p > mx {
			mx = p
		}
	}
	return mx
}

// UsedMemory returns the bytes currently charged to machine m.
func (c *Cluster) UsedMemory(m int) int64 {
	mm := c.machines[m]
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.used
}

func (c *Cluster) newID() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// writeFileAtomic writes data to path via a unique temp file and rename, so
// two speculative attempts racing on the same deterministic block path never
// interleave partial writes — the loser's rename just reinstalls identical
// bytes. The temp file is fsynced before the rename: without it a crash
// after the rename could leave the new name pointing at data the kernel never
// flushed — a torn block that a later read (or a Resume) would trust. A
// failed rename removes the temp file rather than leaking *.tmpN residue.
//
//distenc:accounted -- callers attribute the spill via countSpillWrite at the call site
func (c *Cluster) writeFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, c.newID())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeFrameFileAtomic writes data to path as a single length-prefixed frame
// (see ReadFrame), atomically. Spill blocks and checkpoint images go through
// here so a torn file — truncated by a crash between write and flush — is
// detected by the frame reader instead of being parsed as a shorter block.
//
//distenc:accounted -- callers attribute the spill via countSpillWrite at the call site
func (c *Cluster) writeFrameFileAtomic(path string, data []byte) error {
	return c.writeFileAtomic(path, AppendFrame(make([]byte, 0, 4+len(data)), data))
}

// charge reserves bytes on machine m, failing with ErrOutOfMemory if the
// budget would be exceeded.
func (c *Cluster) charge(m int, bytes int64) error {
	if bytes < 0 {
		panic("rdd: negative charge")
	}
	mm := c.machines[m]
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if c.cfg.MemoryPerMachine > 0 && mm.used+bytes > c.cfg.MemoryPerMachine {
		return fmt.Errorf("rdd: machine %d needs %d bytes over budget %d (used %d): %w",
			m, bytes, c.cfg.MemoryPerMachine, mm.used, ErrOutOfMemory)
	}
	mm.used += bytes
	if mm.used > mm.peak {
		mm.peak = mm.used
	}
	return nil
}

func (c *Cluster) release(m int, bytes int64) {
	mm := c.machines[m]
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.used -= bytes
	if mm.used < 0 {
		mm.used = 0
	}
}

// SimulatedTime returns the accumulated critical-path execution time of all
// stages run so far: per stage, the maximum over machines of that machine's
// total task time divided by its core count. On a host with fewer physical
// cores than simulated machines (where real wall-clock cannot show parallel
// speedup) this is the honest scalability measure — use it together with
// Config.SerializeTasks so the per-task durations are uncontended.
func (c *Cluster) SimulatedTime() time.Duration {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return c.simTime
}

// Charge reserves bytes on machine m for an algorithm-declared allocation
// (e.g. a baseline's dense intermediate that a real run would materialize).
// The caller must Release it. Returns ErrOutOfMemory (wrapped) over budget.
func (c *Cluster) Charge(m int, bytes int64) error { return c.charge(m, bytes) }

// Release returns bytes previously reserved with Charge on machine m.
func (c *Cluster) Release(m int, bytes int64) { c.release(m, bytes) }

// InjectTaskFailures makes the next n tasks of stages whose name starts with
// stagePrefix fail with a retryable error — the fault-injection hook used to
// exercise lineage-based recovery.
func (c *Cluster) InjectTaskFailures(stagePrefix string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failOnce[stagePrefix] = n
}

// shouldFail consumes one injected failure for stage if any registered prefix
// matches. With several matching prefixes the longest one is charged —
// deterministic, unlike iterating the map, whose order would make which
// prefix's budget is decremented (and thus which later stage fails) vary
// run-to-run.
func (c *Cluster) shouldFail(stage string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := ""
	found := false
	for prefix, n := range c.failOnce {
		if n > 0 && strings.HasPrefix(stage, prefix) && (!found || len(prefix) > len(best)) {
			best, found = prefix, true
		}
	}
	if found {
		c.failOnce[best]--
	}
	return found
}

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
// double-apply when an attempt fails and is retried from lineage. Accumulator
// adds route through it via AddOnSuccess.
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

// Cluster returns the cluster the task runs on.
func (tc *TaskCtx) Cluster() *Cluster { return tc.c }

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
// machine (capped exponential backoff, never the machine that just failed
// when an alternative exists) and recomputed from lineage, up to the
// configured retry budget; other errors abort the stage. With speculation
// enabled a monitor goroutine additionally launches one backup attempt per
// suspected straggler; the first finisher wins the partition.
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
	if !speculative {
		c.backoff(attempt)
	}
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

// StageLog returns a copy of the per-stage execution records, in order.
func (c *Cluster) StageLog() []StageRecord {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return append([]StageRecord(nil), c.stageLog...)
}

// StageLogLen returns the number of stages executed so far; together with
// StageLogSince it lets drivers attribute stages to algorithm phases without
// copying the whole log each iteration.
func (c *Cluster) StageLogLen() int {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return len(c.stageLog)
}

// StageLogSince returns a copy of the stage records from index mark on.
func (c *Cluster) StageLogSince(mark int) []StageRecord {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	if mark < 0 || mark > len(c.stageLog) {
		mark = len(c.stageLog)
	}
	return append([]StageRecord(nil), c.stageLog[mark:]...)
}

// SetStageTag labels every subsequently executed stage (and its task records)
// with tag — the hook iterative drivers use to mark which iteration/phase a
// stage belongs to. An empty tag clears it.
func (c *Cluster) SetStageTag(tag string) {
	c.simMu.Lock()
	c.stageTag = tag
	c.simMu.Unlock()
}

// Note adds a line to the head of Summary: how a driver says once what it set
// up before its stages ran (the solver's blocking, say), which no stage row
// shows.
func (c *Cluster) Note(line string) {
	c.simMu.Lock()
	c.notes = append(c.notes, line)
	c.simMu.Unlock()
}

// Trace returns a copy of the per-task records. It is empty unless the
// cluster was built with Config.TaskTrace.
func (c *Cluster) Trace() []TaskRecord {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return append([]TaskRecord(nil), c.taskLog...)
}

// RecordDriverSpan appends a named span of driver-side work that started at
// start and lasted d, labeled with the current stage tag. Driver algebra is
// invisible to stage accounting — this is how it enters the trace.
func (c *Cluster) RecordDriverSpan(name string, start time.Time, d time.Duration) {
	c.simMu.Lock()
	c.driverSpans = append(c.driverSpans, DriverSpan{
		Name:  name,
		Tag:   c.stageTag,
		Start: start.Sub(c.start),
		Dur:   d,
	})
	c.simMu.Unlock()
}

// DriverSpans returns a copy of the recorded driver-side spans, in order.
func (c *Cluster) DriverSpans() []DriverSpan {
	c.simMu.Lock()
	defer c.simMu.Unlock()
	return append([]DriverSpan(nil), c.driverSpans...)
}
