package rdd

import "time"

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
	// BytesSpilled counts the modelled disk bytes read+written by this
	// stage's tasks (ModeMapReduce shuffle traffic).
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
