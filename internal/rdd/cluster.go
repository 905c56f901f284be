// Package rdd is an in-process, Spark-like distributed dataflow engine: the
// substrate this reproduction runs DisTenC and its baselines on in place of a
// real Spark cluster.
//
// The engine provides lazy, lineage-backed resilient distributed datasets
// with exactly the operators its callers reach: FromPartitions, one narrow
// transformation (MapPartitions), one wide one (ShuffleMap), explicit caching
// (Cache, Materialize, Unpersist), and the action Collect. There are no
// broadcast variables: read-only driver state crosses into a task closure by
// an accounted //distenc:capture-ok waiver, and an algorithm that replicates
// state on every machine charges it (Cluster.Charge) and counts its traffic
// (TaskCtx.CountShuffled) itself. TestModuleSurfaceIsReached, at the module
// root, fails when an exported name loses its last caller.
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
//   - Shuffled data is really serialized — shuffle records frame themselves
//     (BinaryRecord) — so the engine reports honest byte counts for the
//     paper's Lemma 3 accounting.
//   - ModeMapReduce charges every shuffle byte as a disk write and a disk
//     read, with DiskLatencyPerMB of modelled latency, and disables in-memory
//     caching (forcing lineage recomputation each stage), which is exactly
//     the Hadoop penalty the paper attributes SCouT's and FlexiFact's
//     slowness to. The exchange itself stays in memory, durable across
//     machine loss like replicated HDFS storage.
//   - Tasks that fail with a retryable error (fault injection, used in
//     tests) are re-run on another machine from lineage, like Spark's task
//     retry.
package rdd

import (
	"errors"
	"fmt"
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
	// ModeMapReduce is Hadoop-like: shuffles are charged as disk traffic and
	// Cache is a no-op, so every stage recomputes its lineage.
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
	// cached partitions and declared allocations (Charge, ChargeTransient).
	// Zero means unlimited.
	MemoryPerMachine int64
	// Mode selects Spark-like or MapReduce-like execution.
	Mode Mode
	// DiskLatencyPerMB adds modeled disk/HDFS latency per spilled megabyte
	// (both write and read) in ModeMapReduce. Zero adds none.
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
	// Transport, when set, moves committed block images (shuffle buckets) to
	// real worker processes instead of keeping them in the driver's memory —
	// see the Transport interface. Nil selects the built-in in-process
	// backend. The transport must front exactly Machines workers and is owned
	// by the caller, who closes it after the cluster.
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
	// TransportCalls counts the PutBlocks, FetchBlocks and Drop calls the
	// engine made on a remote Transport — the round trips a run paid for —
	// and TransportBytesOut / TransportBytesIn the block-image bytes handed
	// to it and handed back. All three stay zero in-process. Unlike the byte
	// counters above they include failed attempts, recomputes and speculative
	// duplicates: they price the network, not the algorithm.
	TransportCalls    atomic.Int64
	TransportBytesOut atomic.Int64
	TransportBytesIn  atomic.Int64
}

// Snapshot returns a plain-struct copy for reporting.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		BytesShuffled:    m.BytesShuffled.Load(),
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

	mu       sync.Mutex
	nextID   int64
	closed   bool
	failOnce map[string]int           // stage-name prefix -> remaining injected failures
	evictors map[int64]machineEvictor // storage holders notified by KillMachine

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

// Close retires every shuffle exchange still alive (worker-held blocks
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
	c.mu.Unlock()
	for _, e := range evictors {
		if ex, ok := e.(interface{ retire() }); ok {
			ex.retire()
		}
	}
	return nil
}

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

// Charge reserves bytes on machine m for an algorithm-declared allocation
// (e.g. a baseline's dense intermediate or factor replica that a real run
// would materialize). The caller must Release it. Returns ErrOutOfMemory
// (wrapped) over budget. A dead machine holds nothing, so charging one is a
// no-op.
func (c *Cluster) Charge(m int, bytes int64) error {
	if c.machineDead(m) {
		return nil
	}
	return c.charge(m, bytes)
}

// Release returns bytes previously reserved with Charge on machine m. A
// machine killed in between lost the charge with everything else it held:
// releasing it again leaves the machine at zero.
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
