package rdd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// runTracedJob executes a shuffle job (map stage + reduce-side collect) so
// every observability counter has something to record.
func runTracedJob(t *testing.T, c *Cluster) {
	t.Helper()
	var data []slabRec
	for i := 0; i < 40; i++ {
		data = append(data, kv(i%4, i))
	}
	pairs := Parallelize(c, "pairs", data, 4)
	red := keyedSum(pairs, "sum", 2)
	if _, err := red.Collect(); err != nil {
		t.Fatal(err)
	}
}

func TestStageLog(t *testing.T) {
	c := testCluster(t, Config{})
	r := Parallelize(c, "log", ints(10), 3)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	log := c.StageLog()
	if len(log) != 1 {
		t.Fatalf("stage log = %v", log)
	}
	if log[0].Name != "collect:log" || log[0].Tasks != 3 {
		t.Fatalf("record = %+v", log[0])
	}
	if log[0].Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

func TestSimulatedTimeAccumulates(t *testing.T) {
	c := testCluster(t, Config{Machines: 2, SerializeTasks: true})
	r := Parallelize(c, "sim", ints(100), 4)
	heavy := MapPartitions(r, "work", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		s := 0
		for i := 0; i < 2_000_000; i++ {
			s += i
		}
		_ = s
		return in, nil
	})
	if _, err := heavy.Collect(); err != nil {
		t.Fatal(err)
	}
	if c.SimulatedTime() <= 0 {
		t.Fatal("simulated time not accumulated")
	}
}

func TestStageRecordRollups(t *testing.T) {
	c := testCluster(t, Config{Machines: 2, CoresPerMachine: 2})
	c.SetStageTag("iter=7")
	runTracedJob(t, c)

	stages := c.StageLog()
	if len(stages) == 0 {
		t.Fatal("no stages recorded")
	}
	var shuffled int64
	for _, s := range stages {
		if s.Tag != "iter=7" {
			t.Errorf("stage %q tag = %q, want iter=7", s.Name, s.Tag)
		}
		if s.Tasks <= 0 || s.Wall <= 0 {
			t.Errorf("stage %q: tasks=%d wall=%v", s.Name, s.Tasks, s.Wall)
		}
		if s.MaxTask < s.MedianTask {
			t.Errorf("stage %q: max task %v < median %v", s.Name, s.MaxTask, s.MedianTask)
		}
		if s.Skew() < 1 {
			t.Errorf("stage %q: skew %v < 1", s.Name, s.Skew())
		}
		shuffled += s.BytesShuffled
	}
	if shuffled == 0 {
		t.Error("shuffle job recorded no BytesShuffled in any stage")
	}
	if got := c.StageLogLen(); got != len(stages) {
		t.Errorf("StageLogLen = %d, want %d", got, len(stages))
	}
	if since := c.StageLogSince(1); len(since) != len(stages)-1 {
		t.Errorf("StageLogSince(1) = %d stages, want %d", len(since), len(stages)-1)
	}
}

func TestTaskTraceGating(t *testing.T) {
	// Rollups are always on; the per-task log only exists when asked for.
	off := testCluster(t, Config{Machines: 2})
	runTracedJob(t, off)
	if got := off.Trace(); len(got) != 0 {
		t.Fatalf("TaskTrace off but Trace() has %d records", len(got))
	}

	on := testCluster(t, Config{Machines: 2, TaskTrace: true})
	runTracedJob(t, on)
	tasks := on.Trace()
	if len(tasks) == 0 {
		t.Fatal("TaskTrace on but Trace() is empty")
	}
	var taskTotal int
	for _, s := range on.StageLog() {
		taskTotal += s.Tasks
	}
	if len(tasks) != taskTotal {
		t.Errorf("Trace() has %d records, stage log counts %d tasks", len(tasks), taskTotal)
	}
	for _, tr := range tasks {
		if tr.Stage == "" || tr.Machine < 0 || tr.Machine >= 2 || tr.Partition < 0 {
			t.Errorf("malformed task record %+v", tr)
		}
		if tr.Run <= 0 || tr.Queue < 0 {
			t.Errorf("task %s[%d]: run=%v queue=%v", tr.Stage, tr.Partition, tr.Run, tr.Queue)
		}
		if tr.Error != "" {
			t.Errorf("task %s[%d] failed: %s", tr.Stage, tr.Partition, tr.Error)
		}
	}
}

func TestTaskTraceRecordsRetries(t *testing.T) {
	c := testCluster(t, Config{Machines: 2, TaskTrace: true})
	c.InjectTaskFailures("collect:sum", 1)
	runTracedJob(t, c)

	var failed, retried bool
	for _, tr := range c.Trace() {
		if tr.Error != "" {
			failed = true
		}
		if tr.Attempt > 0 {
			retried = true
		}
	}
	if !failed || !retried {
		t.Fatalf("injected failure not visible in trace: failed=%v retried=%v", failed, retried)
	}
	var retries int
	for _, s := range c.StageLog() {
		retries += s.Retries
	}
	if retries == 0 {
		t.Fatal("stage log shows no retries after injected failure")
	}
}

func TestSummaryTable(t *testing.T) {
	c := testCluster(t, Config{Machines: 2})
	c.SetStageTag("iter=0")
	runTracedJob(t, c)
	c.RecordDriverSpan("driver-algebra", time.Now(), time.Millisecond)

	sum := c.Summary()
	for _, want := range []string{"stage", "shuffle-write:sum", "collect:sum", "iter=0", "TOTAL", "driver spans: 1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
}

// TestChromeTraceSchema decodes the exported JSON and checks the trace-event
// contract viewers rely on: ph∈{X,M,i}, X events carry non-negative ts and
// positive dur, pids map to declared processes, and every executed stage and
// task appears.
func TestChromeTraceSchema(t *testing.T) {
	c := testCluster(t, Config{Machines: 2, TaskTrace: true})
	c.SetStageTag("iter=0")
	runTracedJob(t, c)
	c.RecordDriverSpan("driver-algebra", time.Now(), time.Millisecond)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}

	processes := map[int]bool{}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "process_name" {
				t.Errorf("unexpected metadata event %q", e.Name)
			}
			processes[e.PID] = true
		case "X":
			if e.Name == "" || e.TS < 0 || e.Dur <= 0 {
				t.Errorf("malformed X event %+v", e)
			}
			seen[e.Name] = true
		case "i":
			// Recovery instants: named, located, zero-duration.
			if e.Name == "" || e.TS < 0 {
				t.Errorf("malformed instant event %+v", e)
			}
			seen[e.Name] = true
		default:
			t.Errorf("event %q has ph=%q, want X, M or i", e.Name, e.Ph)
		}
	}
	// Driver + both machines must be declared, and every X event must land
	// in a declared process.
	for pid := 0; pid <= 2; pid++ {
		if !processes[pid] {
			t.Errorf("missing process_name metadata for pid %d", pid)
		}
	}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && !processes[e.PID] {
			t.Errorf("event %q on undeclared pid %d", e.Name, e.PID)
		}
	}
	for _, s := range c.StageLog() {
		if !seen[s.Name] {
			t.Errorf("stage %q missing from trace", s.Name)
		}
	}
	if !seen["driver-algebra"] {
		t.Error("driver span missing from trace")
	}
	for _, tr := range c.Trace() {
		// Task spans are named stage[partition].
		if !seen[tr.Stage+"["+itoa(tr.Partition)+"]"] {
			t.Errorf("task %s[%d] missing from trace", tr.Stage, tr.Partition)
		}
	}
}

// itoa avoids strconv for the tiny partition numbers in the test above.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
