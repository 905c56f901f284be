package rdd

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Summary renders the stage log as a human-readable table: after the lines
// drivers left with Note, one row per executed stage with its tag, task
// count, wall and critical-path time, retries, byte traffic, and the
// max/median task-time skew, followed by a totals row. It is the quick look
// at where an algorithm's time and shuffle volume went; WriteChromeTrace is
// the full timeline.
func (c *Cluster) Summary() string {
	stages := c.StageLog()
	var b strings.Builder
	c.simMu.Lock()
	for _, line := range c.notes {
		b.WriteString(line + "\n")
	}
	c.simMu.Unlock()
	fmt.Fprintf(&b, "%-34s %-10s %5s %10s %10s %5s %4s %12s %12s %10s %10s %6s\n",
		"stage", "tag", "tasks", "wall", "critical", "retry", "spec", "shuffledB", "spilledB", "wastedB", "recompB", "skew")
	var totalWall, totalCritical time.Duration
	var totalShuffled, totalSpilled, totalWasted, totalRecomp int64
	totalTasks, totalRetries, totalSpec := 0, 0, 0
	for _, s := range stages {
		fmt.Fprintf(&b, "%-34s %-10s %5d %10s %10s %5d %4d %12d %12d %10d %10d %6.2f\n",
			s.Name, s.Tag, s.Tasks, fmtDur(s.Wall), fmtDur(s.Critical),
			s.Retries, s.SpeculativeTasks, s.BytesShuffled, s.BytesSpilled,
			s.BytesWasted, s.BytesRecomputed, s.Skew())
		totalWall += s.Wall
		totalCritical += s.Critical
		totalShuffled += s.BytesShuffled
		totalSpilled += s.BytesSpilled
		totalWasted += s.BytesWasted
		totalRecomp += s.BytesRecomputed
		totalTasks += s.Tasks
		totalRetries += s.Retries
		totalSpec += s.SpeculativeTasks
	}
	fmt.Fprintf(&b, "%-34s %-10s %5d %10s %10s %5d %4d %12d %12d %10d %10d\n",
		fmt.Sprintf("TOTAL (%d stages)", len(stages)), "", totalTasks,
		fmtDur(totalWall), fmtDur(totalCritical), totalRetries, totalSpec,
		totalShuffled, totalSpilled, totalWasted, totalRecomp)
	if spans := c.DriverSpans(); len(spans) > 0 {
		var driver time.Duration
		for _, sp := range spans {
			driver += sp.Dur
		}
		fmt.Fprintf(&b, "driver spans: %d totaling %s\n", len(spans), fmtDur(driver))
	}
	fmt.Fprintf(&b, "shuffle images: %d B live in unretired exchanges, %d recycled, %d allocated\n",
		c.metrics.ShuffleLiveBytes.Load(), c.metrics.BlocksRecycled.Load(), c.metrics.BlocksAllocated.Load())
	fmt.Fprintf(&b, "task arenas: %d B of float64 slabs pooled\n", 8*c.PooledArenaFloat64s())
	if c.remote() != nil {
		fmt.Fprintf(&b, "transport: %d calls, %d B out, %d B in\n",
			c.metrics.TransportCalls.Load(), c.metrics.TransportBytesOut.Load(), c.metrics.TransportBytesIn.Load())
	}
	if recs := c.Recoveries(); len(recs) > 0 {
		counts := map[string]int{}
		for _, r := range recs {
			counts[r.Kind]++
		}
		fmt.Fprintf(&b, "recovery events: %d", len(recs))
		for _, kind := range []string{
			RecoveryMachineKill, RecoveryTaskRetry, RecoveryCacheEvict,
			RecoveryShuffleEvict, RecoveryShuffleRecompute,
			RecoverySpeculativeLaunch, RecoverySpeculativeWin, RecoverySpeculativeLoss,
		} {
			if n := counts[kind]; n > 0 {
				fmt.Fprintf(&b, "  %s=%d", kind, n)
			}
		}
		b.WriteString("\n")
		for _, r := range recs {
			fmt.Fprintf(&b, "  %-18s at=%-10s machine=%-2d", r.Kind, fmtDur(r.At), r.Machine)
			if r.Stage != "" {
				fmt.Fprintf(&b, " stage=%s", r.Stage)
			}
			if r.Partition >= 0 {
				fmt.Fprintf(&b, " part=%d attempt=%d", r.Partition, r.Attempt)
			}
			if r.Cost > 0 {
				fmt.Fprintf(&b, " cost=%s", fmtDur(r.Cost))
			}
			fmt.Fprintf(&b, " cause=%q\n", r.Cause)
		}
	}
	return b.String()
}

// fmtDur rounds a duration for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since cluster creation
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope ("g" = global)
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process/thread layout of the exported trace: the driver is pid 0 (stages on
// tid 0, driver-side spans on tid 1, recovery instants on tid 2); machine m
// is pid m+1 with one thread per partition a task ran on.
const (
	chromeDriverPID   = 0
	chromeStageTID    = 0
	chromeDriverTID   = 1
	chromeRecoveryTID = 2
)

// WriteChromeTrace exports the cluster's execution history in the Chrome
// trace-event JSON format (chrome://tracing, Perfetto, speedscope): one span
// per stage and per recorded driver span always, plus one span per task
// attempt when the cluster was built with Config.TaskTrace, plus one global
// instant per recovery event (machine kills, retries, evictions, lineage
// recomputes) on the driver's recovery lane. Stage and task args carry the
// observability counters (bytes, retries, skew, queue wait) so the
// shuffle-volume story of Lemma 3 can be read straight off the timeline.
func (c *Cluster) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: chromeDriverPID,
		Args: map[string]any{"name": "driver"},
	}}
	for m := 0; m < c.cfg.Machines; m++ {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: m + 1,
			Args: map[string]any{"name": fmt.Sprintf("machine %d", m)},
		})
	}
	for _, s := range c.StageLog() {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "stage",
			Ph:   "X",
			TS:   micros(s.Start),
			Dur:  durMicros(s.Wall),
			PID:  chromeDriverPID,
			TID:  chromeStageTID,
			Args: map[string]any{
				"tag":               s.Tag,
				"tasks":             s.Tasks,
				"critical_us":       durMicros(s.Critical),
				"retries":           s.Retries,
				"speculative_tasks": s.SpeculativeTasks,
				"bytes_shuffled":    s.BytesShuffled,
				"bytes_spilled":     s.BytesSpilled,
				"bytes_wasted":      s.BytesWasted,
				"bytes_recomputed":  s.BytesRecomputed,
				"skew":              s.Skew(),
			},
		})
	}
	for _, r := range c.Recoveries() {
		args := map[string]any{"cause": r.Cause}
		if r.Stage != "" {
			args["stage"] = r.Stage
		}
		if r.Machine >= 0 {
			args["machine"] = r.Machine
		}
		if r.Partition >= 0 {
			args["partition"] = r.Partition
			args["attempt"] = r.Attempt
		}
		if r.Cost > 0 {
			args["cost_us"] = durMicros(r.Cost)
		}
		events = append(events, chromeEvent{
			Name: r.Kind,
			Cat:  "recovery",
			Ph:   "i",
			S:    "g",
			TS:   micros(r.At),
			PID:  chromeDriverPID,
			TID:  chromeRecoveryTID,
			Args: args,
		})
	}
	for _, sp := range c.DriverSpans() {
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "driver",
			Ph:   "X",
			TS:   micros(sp.Start),
			Dur:  durMicros(sp.Dur),
			PID:  chromeDriverPID,
			TID:  chromeDriverTID,
			Args: map[string]any{"tag": sp.Tag},
		})
	}
	for _, t := range c.Trace() {
		args := map[string]any{
			"tag":            t.Tag,
			"attempt":        t.Attempt,
			"queue_us":       durMicros(t.Queue),
			"transient_peak": t.TransientPeak,
			"bytes_shuffled": t.BytesShuffled,
			"bytes_spilled":  t.BytesSpilled,
		}
		if t.Speculative {
			args["speculative"] = true
		}
		if t.Error != "" {
			args["error"] = t.Error
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s[%d]", t.Stage, t.Partition),
			Cat:  "task",
			Ph:   "X",
			TS:   micros(t.Start),
			Dur:  durMicros(t.Run),
			PID:  t.Machine + 1,
			TID:  t.Partition,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durMicros floors span lengths at 1µs so zero-duration spans stay visible
// (and valid) in trace viewers.
func durMicros(d time.Duration) float64 {
	if d < time.Microsecond {
		return 1
	}
	return micros(d)
}
