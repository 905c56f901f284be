package bench

import (
	"fmt"
	"io"
	"os"

	"distenc/internal/core"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// Phases runs DisTenC once and prints the per-iteration phase breakdown
// (mttkrp-map, mttkrp-reduce, gram, driver algebra) plus the engine's
// per-stage rollups. It is the observability companion to Figures 3–4: the
// paper's scalability story rests on the MTTKRP stages dominating each
// iteration, and this is the experiment that shows whether they do.
//
// With Profile.StageSummary the engine's stage table is printed too; with
// Profile.TraceFile a Chrome-trace JSON of every task is written there.
func Phases(w io.Writer, p Profile) *core.Result {
	p = p.withDefaults()
	dim, nnz, rank, iters := 10_000, 200_000, 10, 5
	if p.Small {
		dim, nnz, iters = 2_000, 20_000, 3
	}
	header(w, "Phase breakdown — per-iteration stage attribution",
		"MTTKRP map+reduce dominate each iteration; driver algebra stays flat as data grows")

	t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
	tp, tpClose, err := p.transportFor(p.Machines)
	if err != nil {
		fmt.Fprintf(w, "backend: %v\n", err)
		return nil
	}
	defer tpClose()
	c, err := rdd.NewCluster(rdd.Config{
		Machines:         p.Machines,
		MemoryPerMachine: p.MemoryPerMachine,
		TaskTrace:        p.TraceFile != "",
		Fault:            p.Fault,
		Speculation:      p.Speculation,
		Transport:        tp,
	})
	if err != nil {
		fmt.Fprintf(w, "cluster: %v\n", err)
		return nil
	}
	defer c.Close()
	// Tol < 0 disables convergence stopping (0 means "use the default"),
	// so every requested iteration appears in the breakdown.
	opt := core.Options{Rank: rank, MaxIter: iters, Tol: -1, Seed: p.Seed}
	res, err := core.CompleteDistributed(c, t, nil, core.DistOptions{Options: opt, GridPartition: true, Wire: p.Wire})
	if err != nil {
		fmt.Fprintf(w, "DisTenC: %v\n", err)
		return nil
	}

	fmt.Fprintf(w, "dim=%d nnz=%d rank=%d machines=%d\n", dim, nnz, rank, p.Machines)
	fmt.Fprint(w, res.Phases)
	if p.StageSummary {
		fmt.Fprint(w, c.Summary())
	}
	if p.TraceFile != "" {
		tf, err := os.Create(p.TraceFile)
		if err != nil {
			fmt.Fprintf(w, "trace: %v\n", err)
			return res
		}
		if err := c.WriteChromeTrace(tf); err != nil {
			fmt.Fprintf(w, "trace: %v\n", err)
		} else if err := tf.Close(); err != nil {
			fmt.Fprintf(w, "trace: %v\n", err)
		} else {
			fmt.Fprintf(w, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", p.TraceFile)
		}
	}
	return res
}
