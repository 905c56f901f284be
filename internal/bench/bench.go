// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§IV), each printing the same rows/series the
// paper reports, at a laptop scale documented in DESIGN.md §2. The absolute
// numbers differ from the paper's 10-node cluster; the shapes — who wins,
// who runs out of memory first, how curves grow — are the reproduction
// target, and EXPERIMENTS.md records paper-vs-measured per experiment.
package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"distenc/internal/baselines"
	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/transport"
)

// Profile selects experiment scale.
type Profile struct {
	// Small shrinks every sweep to seconds-scale sizes (used by the
	// `go test -bench` smoke benchmarks); the default full profile is what
	// cmd/distenc-bench runs.
	Small bool
	// Machines is the simulated cluster width for non-scalability
	// experiments (default 4).
	Machines int
	// MemoryPerMachine is the per-machine budget for the Figure 3 sweeps.
	// Zero picks the profile default (64 MB full, 24 MB small).
	MemoryPerMachine int64
	// Seed drives every generator.
	Seed uint64
	// TraceFile, when non-empty, makes the Phases experiment record
	// per-task spans and write a Chrome-trace JSON of its run to this path.
	TraceFile string
	// StageSummary makes the Phases experiment print the engine's
	// per-stage timing/shuffle table alongside the phase breakdown.
	StageSummary bool
	// Fault, when set, runs the Phases experiment's cluster under the given
	// seeded chaos schedule (task failures, a machine kill, stragglers) so
	// the recovery cost shows up in its stage table and recovery log.
	Fault *rdd.FaultPlan
	// Speculation runs the Phases experiment's cluster with speculative
	// execution so straggler mitigation shows up in its stage table
	// (spec/wastedB columns) and recovery log.
	Speculation bool
	// Backend selects the execution backend: "" or "inproc" keeps every
	// cluster in-process; "tcp" spawns one worker process per machine for
	// each cluster (the binary must call transport.WorkerHook first thing
	// in main).
	Backend string
}

// transportFor builds the profile's execution backend for one cluster of
// the given width. The returned cleanup must run after the cluster's Close
// (defer it before deferring Close); with the in-process backend the
// Transport is nil and cleanup a no-op.
func (p Profile) transportFor(machines int) (rdd.Transport, func(), error) {
	switch p.Backend {
	case "", "inproc":
		return nil, func() {}, nil
	case "tcp":
		cl, err := transport.StartWorkers(machines, transport.Options{})
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown backend %q (want inproc or tcp)", p.Backend)
	}
}

func (p Profile) withDefaults() Profile {
	if p.Machines <= 0 {
		p.Machines = 4
	}
	if p.MemoryPerMachine == 0 {
		if p.Small {
			p.MemoryPerMachine = 24 << 20
		} else {
			p.MemoryPerMachine = 64 << 20
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Method identifies one competitor.
type Method string

// The five methods of the paper's comparison.
const (
	MethodALS       Method = "ALS"
	MethodTFAI      Method = "TFAI"
	MethodSCouT     Method = "SCouT"
	MethodFlexiFact Method = "FlexiFact"
	MethodDisTenC   Method = "DisTenC"
)

// AllMethods lists the comparison in the paper's ordering.
var AllMethods = []Method{MethodALS, MethodTFAI, MethodSCouT, MethodFlexiFact, MethodDisTenC}

// usesAux reports whether the method consumes auxiliary similarity.
func (m Method) usesAux() bool { return m != MethodALS }

// engineMode returns the execution substrate the method was published on.
func (m Method) engineMode() rdd.Mode {
	if m == MethodSCouT || m == MethodFlexiFact {
		return rdd.ModeMapReduce // Hadoop-based systems
	}
	return rdd.ModeInMemory
}

// diskLatencyPerMB is the HDFS latency the MapReduce-mode baselines pay per
// spilled megabyte, written and read.
const diskLatencyPerMB = 10 * time.Millisecond

// Outcome is one method×workload cell of a figure.
type Outcome struct {
	Method     Method
	Status     string // "ok", "OOM", or an error class
	Elapsed    time.Duration
	Sim        time.Duration // engine critical-path time
	Result     *core.Result
	Metrics    rdd.MetricsSnapshot
	PeakMemory int64 // max per-machine peak memory
}

// StatusOK is the success status string.
const StatusOK = "ok"

// StatusOOM marks a run killed by the memory budget.
const StatusOOM = "O.O.M."

// runMethod executes one method on a fresh cluster sized by the profile.
func runMethod(p Profile, m Method, machines int, t *sptensor.Tensor, sims []*graph.Similarity, opt core.Options, serialize bool) Outcome {
	tp, tpClose, err := p.transportFor(machines)
	if err != nil {
		return Outcome{Method: m, Status: "backend: " + err.Error()}
	}
	defer tpClose()
	cfg := rdd.Config{
		Machines:         machines,
		CoresPerMachine:  1,
		MemoryPerMachine: p.MemoryPerMachine,
		Mode:             m.engineMode(),
		SerializeTasks:   serialize,
		Transport:        tp,
	}
	if cfg.Mode == rdd.ModeMapReduce {
		cfg.DiskLatencyPerMB = diskLatencyPerMB
	}
	c, err := rdd.NewCluster(cfg)
	if err != nil {
		return Outcome{Method: m, Status: "cluster: " + err.Error()}
	}
	defer c.Close()

	var auxiliary []*graph.Similarity
	if m.usesAux() {
		auxiliary = sims
	}
	start := time.Now()
	var res *core.Result
	switch m {
	case MethodALS:
		res, err = baselines.ALS(c, t, opt)
	case MethodTFAI:
		res, err = baselines.TFAI(c, t, auxiliary, opt)
	case MethodSCouT:
		res, err = baselines.SCouT(c, t, auxiliary, opt)
	case MethodFlexiFact:
		res, err = baselines.FlexiFact(c, t, auxiliary, baselines.FlexiFactOptions{Options: opt})
	case MethodDisTenC:
		// Grid blocking is the paper's §III-C compartmentalization; the
		// harness always runs DisTenC with it.
		res, err = core.CompleteDistributed(c, t, auxiliary, core.DistOptions{Options: opt, GridPartition: true})
	default:
		err = fmt.Errorf("bench: unknown method %q", m)
	}
	out := Outcome{
		Method:     m,
		Elapsed:    time.Since(start),
		Sim:        c.SimulatedTime(),
		Result:     res,
		Metrics:    c.Metrics().Snapshot(),
		PeakMemory: c.MaxPeakMemory(),
	}
	switch {
	case err == nil:
		out.Status = StatusOK
	case errors.Is(err, rdd.ErrOutOfMemory):
		out.Status = StatusOOM
	default:
		out.Status = "error: " + err.Error()
	}
	return out
}

// header prints a figure banner.
func header(w io.Writer, title, paperShape string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	fmt.Fprintf(w, "paper shape: %s\n", paperShape)
}

// cell renders an outcome's runtime for the sweep tables.
func cell(o Outcome) string {
	if o.Status != StatusOK {
		return o.Status
	}
	return fmt.Sprintf("%.2fs", o.Elapsed.Seconds())
}

// rmseOf evaluates a completed model on held-out data, or NaN-safe "-".
func rmseOf(o Outcome, test *sptensor.Tensor) string {
	if o.Status != StatusOK || o.Result == nil {
		return o.Status
	}
	return fmt.Sprintf("%.4f", metrics.RMSE(test, o.Result.Model))
}
