package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// runObservedSolve runs the full distributed solver with per-task tracing on
// and returns the cluster (still open; caller closes) and the result.
func runObservedSolve(t *testing.T, mode rdd.Mode) (*rdd.Cluster, *Result) {
	t.Helper()
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1200, 61)
	c := rdd.MustNewCluster(rdd.Config{Machines: 3, Mode: mode, TaskTrace: true})
	opts := Options{Rank: 3, MaxIter: 3, Tol: -1, Seed: 62}
	res, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c, res
}

// The stage log, task trace, driver spans and phase breakdown must cover
// every iteration of a full solve — in both engine modes, since MapReduce
// mode additionally routes shuffles through disk spills.
func TestObservabilityCoversFullSolve(t *testing.T) {
	for _, mode := range []rdd.Mode{rdd.ModeInMemory, rdd.ModeMapReduce} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			c, res := runObservedSolve(t, mode)
			defer c.Close()

			if got := len(res.Phases); got != res.Iters {
				t.Fatalf("phase breakdown has %d iterations, solver ran %d", got, res.Iters)
			}
			for _, ph := range res.Phases {
				if ph.MTTKRPMap <= 0 || ph.MTTKRPReduce <= 0 {
					t.Errorf("iter %d: map=%v reduce=%v, want both > 0", ph.Iter, ph.MTTKRPMap, ph.MTTKRPReduce)
				}
				if ph.Driver <= 0 || ph.Total < ph.MTTKRPMap {
					t.Errorf("iter %d: driver=%v total=%v", ph.Iter, ph.Driver, ph.Total)
				}
				if ph.BytesShuffled <= 0 {
					t.Errorf("iter %d: no shuffle bytes attributed", ph.Iter)
				}
			}

			// Every iteration must contribute a tagged map and reduce stage.
			type key struct {
				tag, kind string
			}
			stageKinds := map[key]bool{}
			for _, s := range c.StageLog() {
				switch {
				case strings.Contains(s.Name, "mttkrp-map"):
					stageKinds[key{s.Tag, "map"}] = true
					if s.BytesShuffled == 0 {
						t.Errorf("map stage %q (%s) recorded no shuffle bytes", s.Name, s.Tag)
					}
					if mode == rdd.ModeMapReduce && s.BytesSpilled == 0 {
						t.Errorf("map stage %q (%s) recorded no spill bytes in MapReduce mode", s.Name, s.Tag)
					}
				case strings.Contains(s.Name, "mttkrp-reduce"):
					stageKinds[key{s.Tag, "reduce"}] = true
				}
			}
			for it := 0; it < res.Iters; it++ {
				tag := fmt.Sprintf("iter=%d", it)
				if !stageKinds[key{tag, "map"}] || !stageKinds[key{tag, "reduce"}] {
					t.Errorf("iteration %d missing tagged mttkrp stages", it)
				}
			}

			// The blocking the solver chose is said once, ahead of the stage table.
			if line := res.Blocking.String(); !strings.HasPrefix(c.Summary(), line+"\n") || !strings.HasPrefix(line, "blocking 3×1×1: ") {
				t.Errorf("Summary does not open with the result's blocking line %q:\n%s", line, c.Summary())
			}

			// Driver algebra is timed once per iteration.
			algebra := 0
			for _, sp := range c.DriverSpans() {
				if sp.Name == "driver-algebra" {
					algebra++
				}
			}
			if algebra != res.Iters {
				t.Errorf("driver-algebra spans = %d, want %d", algebra, res.Iters)
			}

			// Per-task records exist for every stage task and agree with the
			// stage rollups on shuffle volume.
			var stageTasks int
			var stageShuffled int64
			for _, s := range c.StageLog() {
				stageTasks += s.Tasks
				stageShuffled += s.BytesShuffled
			}
			var taskShuffled int64
			for _, tr := range c.Trace() {
				taskShuffled += tr.BytesShuffled
			}
			if got := len(c.Trace()); got != stageTasks {
				t.Errorf("task trace has %d records, stage log counts %d tasks", got, stageTasks)
			}
			if taskShuffled != stageShuffled {
				t.Errorf("task-level shuffle bytes %d != stage-level %d", taskShuffled, stageShuffled)
			}
		})
	}
}

// The exported Chrome trace of a full solve must contain one stage span per
// executed stage of every iteration plus the driver-algebra spans — the
// ISSUE's end-to-end observability contract.
func TestChromeTraceCoversEveryIteration(t *testing.T) {
	c, res := runObservedSolve(t, rdd.ModeInMemory)
	defer c.Close()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}

	type span struct{ name, tag string }
	stageSpans := map[span]bool{}
	driverSpans := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" && e.Ph != "M" {
			t.Fatalf("event %q: ph=%q", e.Name, e.Ph)
		}
		if e.Ph == "X" && (e.TS < 0 || e.Dur <= 0) {
			t.Fatalf("event %q: ts=%v dur=%v", e.Name, e.TS, e.Dur)
		}
		switch e.Cat {
		case "stage":
			tag, _ := e.Args["tag"].(string)
			stageSpans[span{e.Name, tag}] = true
		case "driver":
			driverSpans[e.Name]++
		}
	}
	for it := 0; it < res.Iters; it++ {
		tag := fmt.Sprintf("iter=%d", it)
		for _, name := range []string{"shuffle-write:mttkrp-map", "collect:mttkrp-reduce"} {
			if !stageSpans[span{name, tag}] {
				t.Errorf("trace missing stage %q for %s", name, tag)
			}
		}
	}
	if driverSpans["driver-algebra"] != res.Iters {
		t.Errorf("trace has %d driver-algebra spans, want %d", driverSpans["driver-algebra"], res.Iters)
	}
	if driverSpans["gram"] != res.Iters {
		t.Errorf("trace has %d gram spans, want %d", driverSpans["gram"], res.Iters)
	}
}

// The serial solver reports the same phase schema, so serial-vs-distributed
// breakdowns are comparable.
func TestSerialPhaseBreakdown(t *testing.T) {
	d := synth.LinearFactorDataset([]int{15, 15, 15}, 2, 700, 63)
	res, err := Complete(d.Tensor, d.Sims, Options{Rank: 3, MaxIter: 3, Tol: -1, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != res.Iters {
		t.Fatalf("phases = %d, iters = %d", len(res.Phases), res.Iters)
	}
	tot := res.Phases.Totals()
	if tot.MTTKRPMap <= 0 || tot.Gram <= 0 || tot.Total <= 0 {
		t.Fatalf("degenerate totals %+v", tot)
	}
	if s := res.Phases.String(); !strings.Contains(s, "TOTAL") {
		t.Errorf("breakdown table missing TOTAL row:\n%s", s)
	}
}
